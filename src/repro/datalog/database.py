"""The fact store: one copy of each relation, as code blocks.

A :class:`Database` keeps every relation as int64 code columns, one
:class:`~repro.datalog.columns.Block` per (predicate, arity) in its
:class:`~repro.datalog.columns.ColumnStore`.  Facts enter as columns
(:meth:`Database.load`, :meth:`Database.append`) or as tuples
(:meth:`Database.add`, :meth:`Database.add_all`, interned on the way
in); either way a block keeps only the rows it lacks, by an exact
membership test on the rows' class codes, so set semantics follow
Python ``==`` while each stored value keeps its type.

Decoding happens where a caller reads facts: :meth:`facts`,
:meth:`iter_facts`, :meth:`match` and :meth:`all_facts` decode the
blocks they read.  The engine's interpreter (its per-row executor)
reads a *decoded view* instead: a row list (:meth:`live_rows`) for a
scan with nothing bound, and positional hash indexes
(:meth:`index_for`, which :meth:`match` probes) for the rest.  The view
is built per predicate on first request, and from then on every append
to the predicate extends it in place, never replaces it.  A vectorized
run never asks for it, and a :meth:`match` with an empty pattern
decodes afresh rather than leave a row list behind.

Facts are append-only: there is no removal.  That is what the chase
assumes (derived facts only accumulate, aggregates are monotonic), and a
caller that needs a retraction builds a new ``Database`` from the changed
input and runs the engine again.  It is also what lets :meth:`copy`
share the blocks instead of copying them, and what lets the engine
name a semi-naive delta as the rows of a block past a mark.

Predicates may mix arities under one name (the engine stores ``link/3``
and ``link/4`` together); each arity has its own block, facts come back
in insertion order across them, and an index over positions a short
tuple does not have simply skips that tuple.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator

from .columns import ColumnStore

FactValues = tuple
Fact = tuple[str, FactValues]

#: positions-tuple -> {key values -> [value tuples]}
_PredicateIndexes = dict[tuple[int, ...], dict[tuple, list[FactValues]]]


class Database:
    """A set of facts grouped by predicate name, held as code blocks."""

    def __init__(self, facts: Iterable[Fact] = (), store: ColumnStore | None = None):
        self._columns = store if store is not None else ColumnStore()
        # the decoded view, per predicate, built on demand: row lists
        # and positional indexes
        self._rows: dict[str, list[FactValues]] = {}
        self._indexes: dict[str, _PredicateIndexes] = {}
        self.add_all(facts)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, predicate: str, values: FactValues) -> bool:
        """Insert a fact; returns True when it was new.  One fact costs
        a few dict lookups and no array splice
        (:meth:`ColumnStore.add_one`)."""
        interner = self._columns.interner
        codes = list(map(interner.intern, values))
        if not self._columns.add_one(predicate, codes):
            return False
        if predicate in self._rows or predicate in self._indexes:
            self._extend_view(predicate, [tuple(map(interner.value, codes))])
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; returns how many were new."""
        by_predicate: dict[str, list[FactValues]] = {}
        # a repeat is ``==`` to an earlier fact: the blocks would drop it
        for predicate, values in dict.fromkeys(facts):
            by_predicate.setdefault(predicate, []).append(values)
        return sum(self._add_rows(p, rows) for p, rows in by_predicate.items())

    def load(self, predicate: str, columns: list) -> int:
        """Insert one relation given as value columns (one sequence per
        position, all of one length); returns how many rows were new.
        Each column is interned in one pass."""
        intern = self._columns.interner.intern_column
        return self.append(predicate, len(columns), [intern(c) for c in columns],
                           len(columns[0]) if columns else 0)

    def append(self, predicate: str, arity: int, codes: list, count: int) -> int:
        """Insert ``count`` rows given as code columns of this database's
        interner; returns how many were new.  A decoded view of the
        predicate, if one was built, is extended with them."""
        fresh = self._columns.append(predicate, arity, codes, count)
        if len(fresh) and (predicate in self._rows or predicate in self._indexes):
            decode = self._columns.interner.decode
            added = list(zip(*(decode(column[fresh]) for column in codes)))
            self._extend_view(predicate, added or [()] * len(fresh))
        return len(fresh)

    def _add_rows(self, predicate: str, rows: list[FactValues]) -> int:
        """Insert tuples of one predicate, in order, one append per run
        of equal arity."""
        intern = self._columns.interner.intern_column
        added = 0
        for arity, run in groupby(rows, key=len):
            chunk = list(run)
            codes = [intern(column) for column in zip(*chunk)]
            added += self.append(predicate, arity, codes, len(chunk))
        return added

    def _extend_view(self, predicate: str, rows: list[FactValues]) -> None:
        live = self._rows.get(predicate)
        if live is not None:
            live.extend(rows)
        for positions, index in self._indexes.get(predicate, {}).items():
            _index_rows(index, positions, rows)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def contains(self, predicate: str, values: FactValues) -> bool:
        block = self._columns.block(predicate, len(values))
        if block is None:
            return False
        return block.holds(list(map(self._columns.interner.lookup, values)))

    def facts(self, predicate: str) -> list[FactValues]:
        """All value tuples of ``predicate`` in insertion order, as a
        fresh list: mutating it cannot touch the store."""
        live = self._rows.get(predicate)
        return list(live) if live is not None else self._columns.decode(predicate)

    def iter_facts(self, predicate: str) -> Iterator[FactValues]:
        """Iterate the facts of ``predicate``, including those added
        while the iteration runs."""
        live = self._rows.get(predicate)
        return iter(live) if live is not None else self._iter_decoded(predicate)

    def _iter_decoded(self, predicate: str) -> Iterator[FactValues]:
        done = 0
        while done < self.count(predicate):
            rows = self._columns.decode(predicate, done)
            done += len(rows)
            yield from rows

    def predicates(self) -> list[str]:
        return self._columns.predicates()

    def match(self, predicate: str, pattern: dict[int, object]) -> Iterator[FactValues]:
        """Yield facts of ``predicate`` whose positions match ``pattern``.

        ``pattern`` maps position -> required value.  An empty pattern
        scans the predicate (decoding it, or reading its row list when
        the decoded view has one); a pattern probes the hash index over
        its positions.
        """
        if not pattern:
            live = self._rows.get(predicate)
            return iter(live if live is not None else self._columns.decode(predicate))
        positions = tuple(sorted(pattern))
        index = self.index_for(predicate, positions)
        key = tuple(pattern[p] for p in positions)
        return iter(index.get(key, ()))

    def index_for(
        self, predicate: str, positions: tuple[int, ...]
    ) -> dict[tuple, list[FactValues]]:
        """The live hash index of ``predicate`` over ``positions``.

        Builds the index on first use and returns the *live* dict:
        subsequent appends extend it in place, so holding a reference
        stays valid for the lifetime of this database.  ``positions``
        must be sorted ascending.
        """
        indexes = self._indexes.setdefault(predicate, {})
        index = indexes.get(positions)
        if index is None:
            index = indexes[positions] = {}
            _index_rows(index, positions, self.facts(predicate))
        return index

    # ------------------------------------------------------------------
    # planner statistics
    # ------------------------------------------------------------------

    def cardinality(self, predicate: str) -> int:
        """Current number of facts of ``predicate`` (0 when absent)."""
        return self._columns.count(predicate)

    def distinct_count(self, predicate: str, positions: tuple[int, ...]) -> int:
        """Number of distinct keys over ``positions`` (ascending), from
        the code blocks — exact, cached per relation size, and never
        building an index, so the planner (including its replanning
        path) can ask freely."""
        return self._columns.distinct_count(predicate, positions)

    def column_store(self) -> ColumnStore:
        """The code blocks holding this database's relations."""
        return self._columns

    # ------------------------------------------------------------------
    # the decoded view (the interpreter's scan list)
    # ------------------------------------------------------------------

    def live_rows(self, predicate: str) -> list[FactValues]:
        """The live insertion-order row list (internal; do not mutate)."""
        live = self._rows.get(predicate)
        if live is None:
            live = self._rows[predicate] = self._columns.decode(predicate)
        return live

    # ------------------------------------------------------------------
    # bulk access / misc
    # ------------------------------------------------------------------

    def all_facts(self) -> Iterator[Fact]:
        for predicate in self.predicates():
            for values in self.facts(predicate):
                yield (predicate, values)

    def count(self, predicate: str | None = None) -> int:
        if predicate is not None:
            return self._columns.count(predicate)
        return sum(map(self._columns.count, self.predicates()))

    def copy(self, predicates: Iterable[str] | None = None) -> "Database":
        """A clone that later additions to either side do not reach.

        ``predicates`` limits the clone to those relations (all, by
        default).  The clone shares the blocks (append-only; its first
        append to one copies it) and interns into a child of this
        database's interner; decoded views are not carried over.
        """
        wanted = None if predicates is None else set(predicates)
        return Database(store=self._columns.copy(wanted))

    def __contains__(self, fact: Fact) -> bool:
        predicate, values = fact
        return self.contains(predicate, values)

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        sizes = {predicate: self.count(predicate) for predicate in self.predicates()}
        return f"Database({sizes})"


def _index_rows(index: dict, positions: tuple[int, ...], rows) -> None:
    """File ``rows`` into a positional index (rows too short skipped)."""
    last = positions[-1]
    for values in rows:
        if last < len(values):
            index.setdefault(tuple(values[p] for p in positions), []).append(values)
