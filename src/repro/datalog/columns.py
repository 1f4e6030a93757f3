"""Columnar relation cache: interned code columns per (predicate, arity).

The vectorized executor (:mod:`repro.datalog.vectorized`) evaluates rule
bodies whole-relation-at-a-time.  This module supplies its data layer:

* :class:`ValueInterner` — a dictionary-encoding of fact values into
  dense int64 codes.  The dict uses Python ``==``/``hash`` semantics, so
  two values get the same code exactly when the tuple-based hash joins of
  the compiled path would treat them as equal (``1 == 1.0`` shares a
  code; labelled nulls share a code per label; a NaN object is equal only
  to itself, so each distinct NaN object gets its own code — matching
  Python's identity-first container semantics).  Alongside the value
  table the interner maintains float images and safety masks that let the
  executor decide *per column* whether numeric work can be done in
  float64 without diverging from Python scalar arithmetic;
* :class:`ColumnStore` — per (predicate, arity) struct-of-arrays blocks
  of codes, synced incrementally against the database's live row lists.
  A fact store is append-only, so the sync key is the number of rows
  consumed: rows past it are appended to the existing arrays and a block
  is never rebuilt.  The store also caches join build sides (stable
  argsort + packed keys per probe signature) so a relation that several
  rules probe the same way is sorted once per version, however many
  columns the key has.

The database holds its store, so the store holds the database's row-list
dict and never the database: with no reference cycle between them, a
run's facts, blocks and build sides are freed as soon as its engine is
dropped, without waiting for the cycle collector.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

#: Values with |v| <= 2**53 are exactly representable in float64, so
#: comparisons through the float image agree with Python integer
#: comparison.  (Python bools are ints: True == 1.0 both ways.)
_SAFE_INT = 2**53

#: Code-space guard: the executor packs two codes into one int64 as
#: ``(a << 32) | b``; past this many distinct values it falls back.
MAX_CODES = 2**31


class ValueInterner:
    """Append-only bidirectional value <-> int64 code dictionary.

    A *child* (see :meth:`child`) extends a base interner without growing
    it: codes below the base's size at the time of the split are the
    base's, codes from there on are the child's own.  A run interns into
    a child of the extensional store's interner, so the Skolem nulls and
    derived values it mints die with the run.
    """

    __slots__ = (
        "codes", "_values", "_floats", "_is_float", "_is_safe", "_is_nan",
        "_cache", "mixed", "_base", "_offset",
    )

    def __init__(self) -> None:
        self.codes: dict[Any, int] = {}
        self._values: list[Any] = []
        self._floats: list[float] = []
        self._is_float: list[bool] = []
        self._is_safe: list[bool] = []
        self._is_nan: list[bool] = []
        # materialised numpy images, rebuilt lazily when the table grew:
        # (size, float64 image, is_float mask, is_safe mask, is_nan mask)
        self._cache: tuple | None = None
        #: codes shared by values that are ``==`` but not interchangeable
        #: (``1`` / ``1.0`` / ``True``, ``0.0`` / ``-0.0``): decoding such a
        #: code gives the first of them, so a Skolem argument or an
        #: aggregate input must not be read through it
        self.mixed: set[int] = set()
        self._base: ValueInterner | None = None
        self._offset = 0

    def child(self) -> "ValueInterner":
        """An interner that sees every code allocated so far and keeps
        the ones allocated from now on to itself."""
        clone = ValueInterner()
        if self._base is None:
            clone._base, clone._offset = self, len(self._values)
            return clone
        # a child of a child: same base, a copy of the run-local part
        clone._base, clone._offset = self._base, self._offset
        clone.codes = dict(self.codes)
        clone._values = list(self._values)
        clone._floats = list(self._floats)
        clone._is_float = list(self._is_float)
        clone._is_safe = list(self._is_safe)
        clone._is_nan = list(self._is_nan)
        clone.mixed = set(self.mixed)
        return clone

    def __len__(self) -> int:
        return self._offset + len(self._values)

    @property
    def values(self):
        """``values[code]`` -> the value (a list, or a view for a child)."""
        if self._base is None:
            return self._values
        return _ChainedValues(self._base._values, self._offset, self._values)

    def decode(self, codes) -> list:
        """The values of an int64 code array, as a list."""
        local = self._values
        if self._base is None:
            return list(map(local.__getitem__, codes.tolist()))
        base, offset = self._base._values, self._offset
        return [base[c] if c < offset else local[c - offset] for c in codes.tolist()]

    def any_mixed(self, codes) -> bool:
        """Does an int64 code array hold a code of :attr:`mixed`?"""
        mixed = self.mixed
        if self._base is not None and self._base.mixed:
            mixed = mixed | {c for c in self._base.mixed if c < self._offset}
        return bool(mixed) and bool(np.isin(codes, list(mixed)).any())

    def intern(self, value: Any) -> int:
        """The code of ``value``, allocating one on first sight."""
        code = self.codes.get(value)
        if code is None and self._base is not None:
            code = self._base.codes.get(value)
            if code is not None and code >= self._offset:
                code = None  # the base's own later code: not ours
        if code is not None:
            if type(value) is not str:
                self._note_equal(code, value)
            return code
        code = len(self)
        self.codes[value] = code
        self._values.append(value)
        kind = type(value)
        if kind is float:
            self._floats.append(value)
            self._is_float.append(True)
            self._is_safe.append(True)
            self._is_nan.append(value != value)
        elif kind is int or kind is bool:
            safe = -_SAFE_INT <= value <= _SAFE_INT
            self._floats.append(float(value) if safe else float("nan"))
            self._is_float.append(False)
            self._is_safe.append(safe)
            self._is_nan.append(False)
        else:
            self._floats.append(float("nan"))
            self._is_float.append(False)
            self._is_safe.append(False)
            self._is_nan.append(False)
        return code

    def _note_equal(self, code: int, value: Any) -> None:
        """Flag ``code`` in :attr:`mixed` when ``value`` equals its first
        value but would not serialise like it."""
        offset = self._offset
        stored = (
            self._base._values[code] if code < offset
            else self._values[code - offset]
        )
        if stored is value:
            return
        kind = type(value)
        if (
            type(stored) is not kind
            or (kind is float and value == 0.0 and repr(value) != repr(stored))
            or (kind is tuple and repr(value) != repr(stored))
        ):
            self.mixed.add(code)

    def lookup(self, value: Any) -> int:
        """The code of ``value``, or -1 when it was never interned (and
        therefore cannot occur in any column)."""
        code = self.codes.get(value)
        if code is None and self._base is not None:
            code = self._base.codes.get(value)
            if code is not None and code >= self._offset:
                code = None
        return -1 if code is None else code

    def tables(self):
        """(float image, is_float, is_safe, is_nan) as numpy arrays.

        The arrays are snapshots covering every code allocated so far;
        they are cached and only rebuilt after the table grows.
        """
        size = len(self)
        cache = self._cache
        if cache is not None and cache[0] == size:
            return cache[1], cache[2], cache[3], cache[4]
        tables = _tables(self)
        base = self._base
        if base is not None:
            # the base's part: its cached arrays if it has them, else
            # built here and not cached there (the base outlives the run)
            offset = self._offset
            if base._cache is not None and base._cache[0] >= offset:
                head = base._cache[1:]
            else:
                head = _tables(base)
            tables = tuple(
                np.concatenate([start[:offset], own])
                for start, own in zip(head, tables)
            )
        self._cache = (size,) + tables
        return tables


def _tables(interner: ValueInterner) -> tuple:
    """The numpy images of an interner's own per-code lists."""
    return (
        np.asarray(interner._floats, dtype=np.float64),
        np.asarray(interner._is_float, dtype=bool),
        np.asarray(interner._is_safe, dtype=bool),
        np.asarray(interner._is_nan, dtype=bool),
    )


class _ChainedValues:
    """``values[code]`` of a child interner: the base's values below the
    split, the child's own above it."""

    __slots__ = ("_base", "_offset", "_own")

    def __init__(self, base: list, offset: int, own: list):
        self._base = base
        self._offset = offset
        self._own = own

    def __getitem__(self, code: int):
        if code < self._offset:
            return self._base[code]
        return self._own[code - self._offset]

    def __len__(self) -> int:
        return self._offset + len(self._own)


class Block:
    """Growable struct-of-arrays code columns for one (predicate, arity)."""

    __slots__ = ("arity", "size", "_columns", "_capacity")

    def __init__(self, arity: int, capacity: int = 16):
        self.arity = arity
        self.size = 0
        self._capacity = max(capacity, 1)
        self._columns = [
            np.empty(self._capacity, dtype=np.int64) for _ in range(arity)
        ]

    def append_rows(self, interner: ValueInterner, rows: Iterable[tuple]) -> None:
        intern = interner.intern
        columns = self._columns
        size = self.size
        capacity = self._capacity
        for values in rows:
            if size == capacity:
                capacity = max(2 * capacity, 16)
                for position, column in enumerate(columns):
                    grown = np.empty(capacity, dtype=np.int64)
                    grown[:size] = column[:size]
                    columns[position] = grown
                self._capacity = capacity
            for position, value in enumerate(values):
                columns[position][size] = intern(value)
            size += 1
        self.size = size

    def column(self, position: int):
        return self._columns[position][: self.size]

    def columns(self) -> list:
        return [column[: self.size] for column in self._columns]

    def snapshot(self) -> "Block":
        clone = Block.__new__(Block)
        clone.arity = self.arity
        clone.size = self.size
        clone._capacity = self.size
        clone._columns = [np.array(c[: self.size]) for c in self._columns]
        return clone


class ColumnStore:
    """Keeps code-column blocks in sync with a Database's row lists.

    Holds the database's predicate -> row-list dict (read only by
    :meth:`sync`), the interner (stores snapshotted from this one get a
    child of it), the code blocks, the rows consumed per predicate and
    the cached join build sides — but not the database, which holds the
    store.
    """

    def __init__(self, database, interner: ValueInterner | None = None):
        self._rows = database._facts
        self.interner = interner if interner is not None else ValueInterner()
        self._blocks: dict[tuple[str, int], Block] = {}
        # predicate -> rows consumed at last sync
        self._synced: dict[str, int] = {}
        # (predicate, arity, probe positions, build filter signature)
        #   -> (block size, cached build-side structures)
        self._build_cache: dict[tuple, tuple[int, tuple]] = {}
        # (predicate, positions) -> (block sizes, distinct keys)
        self._distinct: dict[tuple, tuple[tuple, int]] = {}

    # ------------------------------------------------------------------
    # sync
    # ------------------------------------------------------------------

    def block(self, predicate: str, arity: int) -> Block | None:
        """The synced block for (predicate, arity); None when empty."""
        self.sync(predicate)
        return self._blocks.get((predicate, arity))

    def sync(self, predicate: str) -> None:
        """Fold the rows added since the last sync into the blocks."""
        rows = self._rows[predicate]
        consumed = self._synced.get(predicate, 0)
        total = len(rows)
        if consumed == total:
            return
        by_arity: dict[int, list[tuple]] = {}
        for values in rows[consumed:]:
            by_arity.setdefault(len(values), []).append(values)
        for arity, fresh in by_arity.items():
            block = self._blocks.get((predicate, arity))
            if block is None:
                block = self._blocks[(predicate, arity)] = Block(
                    arity, capacity=len(fresh)
                )
            block.append_rows(self.interner, fresh)
        self._synced[predicate] = total

    def preload(self, predicate: str) -> None:
        """Eagerly sync one predicate (boot-time hook for loaders)."""
        self.sync(predicate)

    def snapshot_for(self, clone_database) -> "ColumnStore":
        """A store over ``clone_database`` reusing this store's work.

        Intended for :meth:`Database.copy`: the clone's row lists equal
        ours right now for every relation it holds, so their blocks carry
        over as numpy copies (no re-interning), and the clone interns
        into a child of our interner: its codes extend ours, and what it
        mints stays out of ours.
        """
        store = ColumnStore(clone_database, interner=self.interner.child())
        held = clone_database._facts
        for key, block in self._blocks.items():
            if key[0] in held:
                store._blocks[key] = block.snapshot()
        store._synced = {
            predicate: consumed for predicate, consumed in self._synced.items()
            if predicate in held
        }
        return store

    # ------------------------------------------------------------------
    # planner statistics
    # ------------------------------------------------------------------

    def distinct_count(self, predicate: str, positions: tuple[int, ...]) -> int:
        """Distinct keys over ``positions`` (ascending) among the rows
        long enough to have them — what a hash index over those positions
        would hold.  Cached until the relation grows; a cached join build
        side on the same positions is counted instead of sorting again."""
        self.sync(predicate)
        blocks = [
            (arity, block) for (name, arity), block in self._blocks.items()
            if name == predicate and arity > positions[-1] and block.size
        ]
        sizes = tuple(block.size for _, block in blocks)
        cached = self._distinct.get((predicate, positions))
        if cached is not None and cached[0] == sizes:
            return cached[1]
        if not blocks:
            count = 0
        else:
            keys = None
            if len(blocks) == 1:
                arity, block = blocks[0]
                built = self._build_cache.get((predicate, arity, positions))
                if built is not None and built[0] == block.size:
                    keys = built[1][1]
            if keys is None:
                relation = blocks[0][1] if len(blocks) == 1 else _Stacked(
                    [block for _, block in blocks]
                )
                keys = np.sort(sort_keys(relation, positions, order=False))
            count = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
        self._distinct[(predicate, positions)] = (sizes, count)
        return count

    # ------------------------------------------------------------------
    # join build sides
    # ------------------------------------------------------------------

    def sorted_keys(self, predicate: str, arity: int, key_positions: tuple[int, ...]):
        """Cached (stable sort order, sorted packed keys, prefix levels)
        join build side (see :func:`sort_keys`).

        The stable argsort means rows sharing a key stay in insertion
        order, which is what lets the executor reproduce the compiled
        path's nested-loop emission order exactly.  Returns None when
        the relation is empty.
        """
        block = self.block(predicate, arity)
        if block is None or block.size == 0:
            return None
        key = (predicate, arity, key_positions)
        cached = self._build_cache.get(key)
        if cached is not None and cached[0] == block.size:
            return cached[1]
        entry = sort_keys(block, key_positions)
        self._build_cache[key] = (block.size, entry)
        return entry


class _Stacked:
    """Blocks of one predicate's arities, one after the other, seen as
    one block-shaped relation over the positions they all have."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks: list):
        self._blocks = blocks

    def column(self, position: int):
        return np.concatenate([block.column(position) for block in self._blocks])


def sort_keys(block, key_positions: tuple[int, ...], order: bool = True):
    """(stable sort order, sorted packed keys, prefix levels) of a
    block-shaped relation (anything with ``column(position)``) on its
    ``key_positions``; with ``order=False`` only the packed keys, in
    row order.

    Codes are < 2**31, so one int64 holds two: the key of a row is its
    first two codes packed.  Every further column packs with the dense
    rank of the key so far among the relation's distinct keys so far;
    those sorted distinct prefixes are the *levels* :func:`probe_keys`
    needs to pack a probe row the same way.  Packing keeps the
    lexicographic order of the code tuples.
    """
    packed = block.column(key_positions[0])
    levels = []
    for number, position in enumerate(key_positions[1:]):
        if number:
            distinct, packed = np.unique(packed, return_inverse=True)
            packed = packed.reshape(-1)
            levels.append(distinct)
        packed = (packed << 32) | block.column(position)
    if not order:
        return packed
    rows = np.argsort(packed, kind="stable")
    return rows, packed[rows], tuple(levels)


def probe_keys(levels, columns):
    """The packed keys of probe code ``columns`` matching those
    :func:`sort_keys` gave a relation with these ``levels``, and a mask
    of the rows whose key prefix occurs in the relation at all (None
    when every row's does) — a row outside it must match nothing."""
    packed = columns[0]
    known = None
    for number, column in enumerate(columns[1:]):
        if number:
            distinct = levels[number - 1]
            rank = np.searchsorted(distinct, packed)
            np.minimum(rank, len(distinct) - 1, out=rank)
            hit = distinct[rank] == packed
            known = hit if known is None else known & hit
            packed = rank
        packed = (packed << 32) | column
    return packed, known
