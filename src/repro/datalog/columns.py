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
    """Append-only bidirectional value <-> int64 code dictionary."""

    __slots__ = (
        "codes", "values", "_floats", "_is_float", "_is_safe", "_is_nan", "_cache"
    )

    def __init__(self) -> None:
        self.codes: dict[Any, int] = {}
        self.values: list[Any] = []
        self._floats: list[float] = []
        self._is_float: list[bool] = []
        self._is_safe: list[bool] = []
        self._is_nan: list[bool] = []
        # materialised numpy images, rebuilt lazily when the table grew:
        # (size, float64 image, is_float mask, is_safe mask, is_nan mask)
        self._cache: tuple | None = None

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: Any) -> int:
        """The code of ``value``, allocating one on first sight."""
        code = self.codes.get(value)
        if code is not None:
            return code
        code = len(self.values)
        self.codes[value] = code
        self.values.append(value)
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

    def lookup(self, value: Any) -> int:
        """The code of ``value``, or -1 when it was never interned (and
        therefore cannot occur in any column)."""
        code = self.codes.get(value)
        return -1 if code is None else code

    def tables(self):
        """(float image, is_float, is_safe, is_nan) as numpy arrays.

        The arrays are snapshots covering every code allocated so far;
        they are cached and only rebuilt after the table grows.
        """
        size = len(self.values)
        cache = self._cache
        if cache is not None and cache[0] == size:
            return cache[1], cache[2], cache[3], cache[4]
        floats = np.asarray(self._floats, dtype=np.float64)
        is_float = np.asarray(self._is_float, dtype=bool)
        is_safe = np.asarray(self._is_safe, dtype=bool)
        is_nan = np.asarray(self._is_nan, dtype=bool)
        self._cache = (size, floats, is_float, is_safe, is_nan)
        return floats, is_float, is_safe, is_nan


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
    :meth:`sync`), the interner (shared with stores snapshotted from this
    one), the code blocks, the rows consumed per predicate and the cached
    join build sides — but not the database, which holds the store.
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
        over as numpy copies (no re-interning) and the append-only
        interner is shared by reference.
        """
        store = ColumnStore(clone_database, interner=self.interner)
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


def sort_keys(block, key_positions: tuple[int, ...]):
    """(stable sort order, sorted packed keys, prefix levels) of a
    block-shaped relation (anything with ``column(position)``) on its
    ``key_positions``.

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
    order = np.argsort(packed, kind="stable")
    return order, packed[order], tuple(levels)


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
