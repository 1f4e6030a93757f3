"""In-memory fact store with on-demand positional hash indexes.

Facts are stored per predicate as plain tuples of Python values.  Joins in
the engine probe :meth:`Database.match` with a partially bound pattern; the
store builds (and caches) a hash index over the bound positions the first
time a given binding shape is used for a predicate, so repeated joins run
at dictionary-lookup speed.

Facts are append-only: there is no removal.  That is what the chase
assumes (derived facts only accumulate, aggregates are monotonic), and a
caller that needs a retraction builds a new ``Database`` from the changed
input and runs the engine again.  The join planner and the compiled rule
evaluators (:mod:`repro.datalog.planner` / :mod:`repro.datalog.compiled`)
and the columnar cache (:mod:`repro.datalog.columns`) lean on what
follows from it:

* **index stability** — once built, the dict returned by
  :meth:`index_for` (and its bucket lists) is extended *in place* by
  :meth:`add`, never replaced, so compiled evaluators may capture it once
  and probe it across semi-naive rounds;
* **cheap statistics** — :meth:`cardinality` and :meth:`distinct_count`
  expose the per-predicate row counts and distinct key counts the
  planner's selectivity estimates are built from.  Both answer from
  maintained state (list lengths, index key counts, or the column
  store's counts, cached per relation size), never by scanning the row
  lists or building an index;
* **the row count is the version** — a live row list only grows, so the
  columnar cache syncs by consuming the rows past the count it last saw
  and extends its column blocks in place.

Predicates may mix arities under one name (the engine stores ``link/3``
and ``link/4`` together); an index over positions a short tuple does not
have simply skips that tuple — it could never match a pattern binding
that position anyway.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

FactValues = tuple
Fact = tuple[str, FactValues]

#: positions-tuple -> {key values -> [value tuples]}
_PredicateIndexes = dict[tuple[int, ...], dict[tuple, list[FactValues]]]


class Database:
    """A mutable set of facts grouped by predicate name."""

    def __init__(self, facts: Iterable[Fact] = ()):
        # predicate -> insertion-ordered list of value tuples
        self._facts: dict[str, list[FactValues]] = defaultdict(list)
        # predicate -> set of value tuples (dedup)
        self._sets: dict[str, set[FactValues]] = defaultdict(set)
        # predicate -> its cached positional indexes (kept per predicate so
        # ``add`` only maintains the indexes of the predicate it touches)
        self._indexes: dict[str, _PredicateIndexes] = {}
        # lazily attached repro.datalog.columns.ColumnStore
        self._columns = None
        for predicate, values in facts:
            self.add(predicate, values)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, predicate: str, values: FactValues) -> bool:
        """Insert a fact; returns True when it was new."""
        existing = self._sets[predicate]
        if values in existing:
            return False
        existing.add(values)
        self._facts[predicate].append(values)
        indexes = self._indexes.get(predicate)
        if indexes:
            width = len(values)
            for positions, index in indexes.items():
                if positions[-1] < width:
                    key = tuple(values[p] for p in positions)
                    index.setdefault(key, []).append(values)
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; returns how many were new."""
        added = 0
        for predicate, values in facts:
            if self.add(predicate, values):
                added += 1
        return added

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def contains(self, predicate: str, values: FactValues) -> bool:
        existing = self._sets.get(predicate)
        return existing is not None and values in existing

    def facts(self, predicate: str) -> list[FactValues]:
        """All value tuples of ``predicate`` in insertion order.

        Returns a fresh list: mutating it cannot desynchronise the store's
        insertion-order lists, dedup sets and cached indexes.  Internal
        consumers on hot paths use :meth:`iter_facts` instead.
        """
        return list(self._facts.get(predicate, ()))

    def iter_facts(self, predicate: str) -> Iterator[FactValues]:
        """Iterate the facts of ``predicate`` without copying.

        The iterator walks the live insertion-order list, so the caller
        must not mutate the database while consuming it.  The engine's
        join loops qualify: derivations are buffered and flushed only
        after each rule application's scan completes.
        """
        return iter(self._facts.get(predicate, ()))

    def predicates(self) -> list[str]:
        return [predicate for predicate, rows in self._facts.items() if rows]

    def match(self, predicate: str, pattern: dict[int, object]) -> Iterator[FactValues]:
        """Yield facts of ``predicate`` whose positions match ``pattern``.

        ``pattern`` maps position -> required value.  An empty pattern
        scans the predicate.
        """
        rows = self._facts.get(predicate)
        if not rows:
            return iter(())
        if not pattern:
            return iter(rows)
        positions = tuple(sorted(pattern))
        index = self.index_for(predicate, positions)
        key = tuple(pattern[p] for p in positions)
        return iter(index.get(key, ()))

    def index_for(
        self, predicate: str, positions: tuple[int, ...]
    ) -> dict[tuple, list[FactValues]]:
        """The live hash index of ``predicate`` over ``positions``.

        Builds the index on first use (this doubles as the planner's
        pre-warm hook) and returns the *live* dict: subsequent ``add``
        calls extend it in place, so holding a reference stays valid for
        the lifetime of this database.  ``positions`` must be
        sorted ascending.
        """
        indexes = self._indexes.get(predicate)
        if indexes is None:
            indexes = self._indexes[predicate] = {}
        index = indexes.get(positions)
        if index is None:
            index = {}
            max_position = positions[-1]
            for values in self._facts.get(predicate, ()):
                if max_position < len(values):
                    key = tuple(values[p] for p in positions)
                    index.setdefault(key, []).append(values)
            indexes[positions] = index
        return index

    # ------------------------------------------------------------------
    # planner statistics
    # ------------------------------------------------------------------

    def cardinality(self, predicate: str) -> int:
        """Current number of facts of ``predicate`` (0 when absent)."""
        rows = self._facts.get(predicate)
        return len(rows) if rows is not None else 0

    def distinct_count(self, predicate: str, positions: tuple[int, ...]) -> int | None:
        """Number of distinct keys over ``positions`` (ascending).

        Never builds or touches an index, so the planner (including its
        replanning path) can ask freely:

        * the exact index over ``positions`` gives the exact key count;
        * otherwise, with a column store attached (every planned engine
          attaches one), the relation's column blocks give the same exact
          count — so a plan does not depend on which closure chains
          happened to build indexes;
        * otherwise, any maintained index over a *subset* of
          ``positions`` gives a lower bound (adding key positions can
          only split keys further); the largest such bound is returned;
        * with nothing usable the answer is None and the planner falls
          back to its default selectivity heuristics.
        """
        indexes = self._indexes.get(predicate)
        if indexes:
            exact = indexes.get(positions)
            if exact is not None:
                return len(exact)
        if self._columns is not None:
            return self._columns.distinct_count(predicate, positions)
        if not indexes:
            return None
        wanted = set(positions)
        best: int | None = None
        for built, index in indexes.items():
            if set(built) <= wanted and (best is None or len(index) > best):
                best = len(index)
        return best

    def column_store(self):
        """The lazily attached columnar cache (see :mod:`.columns`).

        One store per database: interned code columns per (predicate,
        arity), kept in sync with the row lists by their length.
        """
        if self._columns is None:
            from .columns import ColumnStore

            self._columns = ColumnStore(self)
        return self._columns

    # ------------------------------------------------------------------
    # internal live views (compiled-evaluator capture points)
    # ------------------------------------------------------------------

    def live_rows(self, predicate: str) -> list[FactValues]:
        """The live insertion-order row list (internal; do not mutate)."""
        return self._facts[predicate]

    def live_set(self, predicate: str) -> set[FactValues]:
        """The live dedup set (internal; do not mutate)."""
        return self._sets[predicate]

    # ------------------------------------------------------------------
    # bulk access / misc
    # ------------------------------------------------------------------

    def all_facts(self) -> Iterator[Fact]:
        for predicate, rows in self._facts.items():
            for values in rows:
                yield (predicate, values)

    def count(self, predicate: str | None = None) -> int:
        if predicate is not None:
            return len(self._facts.get(predicate, ()))
        return sum(len(rows) for rows in self._facts.values())

    def copy(self, predicates: Iterable[str] | None = None) -> "Database":
        """An independent clone sharing no mutable state with the original.

        ``predicates`` limits the clone to those relations (all, by
        default): a run that reads three relations copies three.  The
        dedup sets are rebuilt from the insertion-order lists (the single
        source of truth), so a clone is internally consistent even if the
        two structures ever drifted apart; indexes are not copied — they
        are rebuilt lazily on first use.
        """
        wanted = None if predicates is None else set(predicates)
        clone = Database()
        for predicate, rows in self._facts.items():
            if not rows or (wanted is not None and predicate not in wanted):
                continue
            clone._facts[predicate] = list(rows)
            clone._sets[predicate] = set(rows)
        if self._columns is not None:
            # column blocks snapshot over by numpy copy (cheap memcpy, and
            # the clone's child interner keeps codes comparable), so
            # engines running over copies skip the per-value re-intern
            clone._columns = self._columns.snapshot_for(clone)
        return clone

    def __contains__(self, fact: Fact) -> bool:
        predicate, values = fact
        return self.contains(predicate, values)

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        sizes = {predicate: len(rows) for predicate, rows in self._facts.items() if rows}
        return f"Database({sizes})"
