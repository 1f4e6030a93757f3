"""Code blocks: every relation held as interned int64 code columns.

A :class:`~repro.datalog.database.Database` keeps each relation here, and
only here, as one block per (predicate, arity):

* :class:`ValueInterner` — a dictionary-encoding of fact values into
  dense int64 codes.  Every value keeps its type: ``1``, ``1.0`` and
  ``True`` (and ``0.0`` / ``-0.0``) get codes of their own, so a stored
  row decodes to the values that were stored.  Python ``==`` — what
  joins, membership tests and dedup follow — is the *class* of a code
  (:meth:`ValueInterner.classes`): the code of the first value interned
  among those equal to it.  A NaN object equals nothing, so each one is
  a class of its own (a container still finds the object it holds).
  Alongside the value table the interner keeps float images and safety
  masks (:meth:`ValueInterner.tables`) that let the executor decide *per
  column* whether numeric work can be done in float64 without diverging
  from Python scalar arithmetic;
* :class:`Block` — the growable struct-of-arrays code columns of one
  (predicate, arity) and an exact membership index over its rows'
  class codes, so an append keeps only rows the relation lacks;
* :class:`ColumnStore` — the blocks of one database, the order in which
  a predicate's arities were appended, and the join build sides (stable
  argsort + packed keys per probe signature), sorted once per version.

Blocks are append-only: a copy of a store shares them, and the first
append to a shared block copies it (its arrays end where the share
did).  A copy interns into a child of the store's interner, so what a
run mints dies with the run.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Any

import numpy as np

#: Values with |v| <= 2**53 are exactly representable in float64, so
#: comparisons through the float image agree with Python integer
#: comparison.  (Python bools are ints: True == 1.0 both ways.)
_SAFE_INT = 2**53

#: Code-space guard: the executor packs two codes into one int64 as
#: ``(a << 32) | b``; past this many distinct values it falls back.
MAX_CODES = 2**31

_NO_CODES = np.empty(0, dtype=np.int64)


def _grown(array, size: int, needed: int):
    """``array`` with room for ``needed`` entries (capacity doubling),
    its first ``size`` kept."""
    if len(array) >= needed:
        return array
    grown = np.empty(max(needed, 2 * len(array), 16), dtype=array.dtype)
    grown[:size] = array[:size]
    return grown


class ValueInterner:
    """Append-only bidirectional value <-> int64 code dictionary.

    A *child* (see :meth:`child`) extends a base interner without growing
    it: codes below the base's size at the time of the split are the
    base's, codes from there on are the child's own.  A run interns into
    a child of the extensional store's interner, so the Skolem nulls and
    derived values it mints die with the run.
    """

    __slots__ = (
        "codes", "_values", "_variants", "_classes", "_images", "_filled",
        "_views", "_base", "_offset",
    )

    def __init__(self) -> None:
        #: value -> the code of the first value ``==`` to it (its class)
        self.codes: dict[Any, int] = {}
        self._values: list[Any] = []
        #: (type, repr) -> code of a value ``==`` to an earlier one of
        #: another type or sign
        self._variants: dict[tuple, int] = {}
        #: such a code -> its class code
        self._classes: dict[int, int] = {}
        #: growable float image, is_float / is_safe / is_nan masks and
        #: (once a variant exists) class codes, filled up to ``_filled``
        self._images: list | None = None
        self._filled = 0
        self._views: tuple | None = None
        self._base: ValueInterner | None = None
        self._offset = 0

    def child(self) -> "ValueInterner":
        """An interner that sees every code allocated so far and keeps
        the ones allocated from now on to itself."""
        clone = ValueInterner()
        base, offset = (self, len(self._values)) if self._base is None else (
            self._base, self._offset
        )
        clone._base, clone._offset = base, offset
        clone._classes = {c: r for c, r in base._classes.items() if c < offset}
        if self._base is not None:  # a child of a child: copy the run-local part
            clone.codes = dict(self.codes)
            clone._values = list(self._values)
            clone._variants = dict(self._variants)
            clone._classes.update(self._classes)
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

    def value(self, code: int):
        """The value of one code."""
        offset = self._offset
        return self._base._values[code] if code < offset else self._values[code - offset]

    def _own(self, table: dict, key) -> int | None:
        """``table[key]`` here, else in the base below the split."""
        code = getattr(self, table).get(key)
        if code is None and self._base is not None:
            code = getattr(self._base, table).get(key)
            if code is not None and code >= self._offset:
                code = None  # the base's own later code: not ours
        return code

    def intern(self, value: Any) -> int:
        """The code of ``value``, allocating one on first sight."""
        code = self.codes.get(value)
        if code is None and self._base is not None:
            code = self._own("codes", value)
        if code is None:
            code = self.codes[value] = self._offset + len(self._values)
            self._values.append(value)
            return code
        if type(value) is str or _same(self.value(code), value):
            return code
        # == to the class's first value but not interchangeable with it
        key = (type(value), repr(value))
        variant = self._own("_variants", key)
        if variant is None:
            variant = self._variants[key] = len(self)
            self._values.append(value)
            self._classes[variant] = code
        return variant

    def intern_column(self, values) -> np.ndarray:
        """The codes of a sequence of values, each distinct one interned
        once, numbered as interning them one by one would (a str column,
        or an int column no ``==`` bool or float was interned for, takes
        its new values' codes in bulk; anything else value by value)."""
        count = len(values)
        kinds = set(map(type, values))
        if len(kinds) != 1 or kinds & {float, tuple}:
            return np.fromiter(map(self.intern, values), dtype=np.int64, count=count)
        codes = dict.fromkeys(values)
        known = self.codes
        if self._base is None and (kinds == {str} or kinds == {int} and all(
            type(self.value(known[value])) is int for value in codes if value in known
        )):
            # a str is ``==`` only to an equal str, and these ints only to
            # ints: a known value keeps its code, new ones take codes in bulk
            fresh = [value for value in codes if value not in known]
            known.update(zip(fresh, range(len(self), len(self) + len(fresh))))
            self._values.extend(fresh)
            codes = known
        else:
            for value in codes:
                codes[value] = self.intern(value)
        return np.fromiter(map(codes.__getitem__, values), dtype=np.int64, count=count)

    def intern_floats(self, column) -> np.ndarray:
        """The codes of a float64 column (no NaN), one intern per
        distinct bit pattern (so ``0.0`` and ``-0.0`` stay apart)."""
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        codes = np.fromiter(
            map(self.intern, bits.view(np.float64).tolist()),
            dtype=np.int64, count=len(bits),
        )
        return codes[inverse.reshape(-1)]

    def lookup(self, value: Any) -> int:
        """The class code of ``value``, or -1 when nothing ``==`` to it
        was interned (and therefore cannot occur in any column)."""
        code = self._own("codes", value)
        return -1 if code is None else code

    def classes(self, codes):
        """The class codes of an int64 code array: equal exactly where
        the values are ``==`` (the array itself while every class has
        one member)."""
        if not self._classes:
            return codes
        return self._fill()[4][codes]

    def tables(self):
        """(float image, is_float, is_safe, is_nan) as numpy arrays
        covering every code allocated so far — views of growable arrays,
        the same objects until the table grows."""
        size = len(self)
        views = self._views
        if views is None or views[0] != size:
            images = self._fill()
            views = self._views = (size, tuple(image[:size] for image in images[:4]))
        return views[1]

    def _fill(self) -> list:
        """The images, filled for every code allocated so far."""
        size = len(self)
        images = self._images
        if images is None:
            images = self._images = [
                np.empty(0, dtype=np.float64), *(np.empty(0, dtype=bool) for _ in range(3)),
                None,
            ]
            if self._base is not None:  # the base's part, once
                head = self._base._fill()
                offset = self._offset
                images[:4] = [np.array(image[:offset]) for image in head[:4]]
                self._filled = offset
        filled = self._filled
        if filled < size:
            fresh = [_image(self.value(code)) for code in range(filled, size)]
            for number in range(4):
                images[number] = _grown(images[number], filled, size)
                images[number][filled:size] = [entry[number] for entry in fresh]
        if self._classes and (images[4] is None or filled < size):
            classes = images[4]
            if classes is None:
                classes = np.arange(len(images[0]), dtype=np.int64)
                start = 0
            else:
                classes = _grown(classes, filled, size)
                start = filled
            classes[start:size] = np.arange(start, size)
            for code, rep in self._classes.items():
                if code >= start:
                    classes[code] = rep
            images[4] = classes
        self._filled = size
        return images


def _same(stored, value) -> bool:
    """Would ``value`` (``==`` to ``stored``) serialise like it?"""
    if stored is value:
        return True
    kind = type(value)
    if type(stored) is not kind:
        return False
    if kind is float and value == 0.0:
        return math.copysign(1.0, value) == math.copysign(1.0, stored)
    return kind is not tuple or repr(value) == repr(stored)


def _image(value) -> tuple:
    """(float image, is_float, is_safe, is_nan) of one value."""
    kind = type(value)
    if kind is float:
        return value, True, True, value != value
    if (kind is int or kind is bool) and -_SAFE_INT <= value <= _SAFE_INT:
        return float(value), False, True, False
    return math.nan, False, False, False


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


class _Ids:
    """Dense ids of int64 keys, numbered in order of first sight.

    Batch operations read the sorted keys seen so far and, when
    ``numbered``, their ids; updates build new arrays, so a shared copy
    never sees them.  One key at a time (:meth:`add_one`) reads a dict
    of every key instead, built on its first use and kept up to date
    from then on, and leaves the keys it adds in a tail that the next
    batch operation merges into the arrays — so a run of single adds
    costs dict lookups, not a splice of the arrays each.
    """

    __slots__ = ("keys", "ids", "_lookup", "_tail")

    def __init__(self, numbered: bool):
        self.keys = _NO_CODES
        self.ids = _NO_CODES if numbered else None
        #: key -> id (0 when not numbered) of every key, once add_one ran
        self._lookup: dict[int, int] | None = None
        #: keys add_one added, in id order, not yet in ``keys``
        self._tail: list[int] = []

    def copy(self) -> "_Ids":
        self._merge()
        clone = _Ids.__new__(_Ids)
        clone.keys, clone.ids = self.keys, self.ids
        clone._lookup, clone._tail = None, []
        return clone

    def _merge(self) -> None:
        """Move the tail's keys (distinct, unseen) into the arrays."""
        tail = self._tail
        if not tail:
            return
        self._tail = []
        keys = np.asarray(tail, dtype=np.int64)
        order = np.argsort(keys)
        at = np.searchsorted(self.keys, keys[order])
        if self.ids is not None:
            start = len(self.keys)
            self.ids = np.insert(self.ids, at, np.arange(start, start + len(keys))[order])
        self.keys = np.insert(self.keys, at, keys[order])

    def find(self, keys):
        """The ids of ``keys`` (0 for each seen key when not numbered),
        -1 where unseen."""
        self._merge()
        if not len(self.keys):
            return np.full(len(keys), -1, dtype=np.int64)
        at = np.searchsorted(self.keys, keys)
        np.minimum(at, len(self.keys) - 1, out=at)
        seen = self.keys[at] == keys
        return np.where(seen, 0 if self.ids is None else self.ids[at], -1)

    def add(self, keys):
        """(ids of ``keys``, ascending positions of the first occurrence
        of each key not seen before); new keys are numbered in order."""
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        ids = self.find(distinct)
        fresh = ids < 0
        firsts = first[fresh]
        if len(firsts):
            known = len(self.keys)
            numbers = np.empty(len(firsts), dtype=np.int64)
            numbers[np.argsort(firsts)] = np.arange(known, known + len(firsts))
            ids[fresh] = numbers
            at = np.searchsorted(self.keys, distinct[fresh])
            self.keys = np.insert(self.keys, at, distinct[fresh])
            if self.ids is not None:
                self.ids = np.insert(self.ids, at, numbers)
            if self._lookup is not None:
                self._lookup.update(zip(
                    distinct[fresh].tolist(),
                    numbers.tolist() if self.ids is not None else repeat(0),
                ))
            firsts.sort()
        return ids[inverse.reshape(-1)], firsts

    def find_one(self, key: int) -> int:
        """:meth:`find` of one key, from the dict once :meth:`add_one`
        built it (so it merges no tail)."""
        if self._lookup is not None:
            return self._lookup.get(key, -1)
        return int(self.find(np.full(1, key, dtype=np.int64))[0])

    def add_one(self, key: int) -> tuple[int, bool]:
        """(id of ``key``, whether it was not seen before)."""
        lookup = self._lookup
        if lookup is None:
            lookup = self._lookup = dict(zip(
                self.keys.tolist(), repeat(0) if self.ids is None else self.ids.tolist()
            ))
        known = lookup.get(key)
        if known is not None:
            return known, False
        number = lookup[key] = 0 if self.ids is None else len(self.keys) + len(self._tail)
        self._tail.append(key)
        return number, True


class Block:
    """The code columns of one (predicate, arity) and the exact
    membership index of their rows.

    A row's key is its class codes packed into one int64: two codes fit
    (codes are < 2**31); past two, the prefix so far is replaced by its
    dense id among the block's distinct prefixes (one :class:`_Ids` per
    level), so equal keys mean ``==`` rows, exactly.  Rows added one at
    a time (:meth:`add_one`) wait in a list until the columns are read.
    """

    __slots__ = ("arity", "size", "_columns", "_levels", "_tail")

    def __init__(self, arity: int):
        self.arity = arity
        self.size = 0
        self._columns = [_NO_CODES] * arity
        self._levels = [_Ids(numbered=True) for _ in range(arity - 2)]
        self._levels.append(_Ids(numbered=False))
        #: rows of add_one not yet in ``_columns`` (counted in ``size``)
        self._tail: list[list[int]] = []

    def _flush(self) -> None:
        """Write the tail's rows into the columns."""
        tail = self._tail
        if not tail:
            return
        self._tail = []
        start = self.size - len(tail)
        rows = np.asarray(tail, dtype=np.int64).reshape(len(tail), self.arity)
        for position in range(self.arity):
            target = _grown(self._columns[position], start, self.size)
            target[start:self.size] = rows[:, position]
            self._columns[position] = target

    def column(self, position: int):
        self._flush()
        return self._columns[position][: self.size]

    def share(self) -> "Block":
        """A block over the same rows whose first append copies them."""
        self._flush()
        clone = Block.__new__(Block)
        clone.arity, clone.size, clone._tail = self.arity, self.size, []
        clone._columns = [column[: self.size] for column in self._columns]
        clone._levels = [level.copy() for level in self._levels]
        return clone

    def _keys(self, classes: list, count: int):
        packed = classes[0] if classes else np.zeros(count, dtype=np.int64)
        for number, column in enumerate(classes[1:]):
            if number:
                packed = self._levels[number - 1].add(packed)[0]
            packed = (packed << 32) | column
        return packed

    def append(self, codes: list, classes: list, count: int):
        """Append the rows of ``codes`` (their ``classes`` alongside)
        that the block lacks, each once; returns their ascending
        positions in the batch."""
        fresh = self._levels[-1].add(self._keys(classes, count))[1]
        self._flush()
        size = self.size
        stop = size + len(fresh)
        if stop > size:
            for position, column in enumerate(codes):
                target = self._columns[position]
                if len(target) < stop:
                    target = self._columns[position] = _grown(target, size, stop)
                target[size:stop] = column[fresh]
            self.size = stop
        return fresh

    def _key_one(self, classes: list, add: bool) -> int:
        """:meth:`_keys` of one row, in Python ints; -1 when a prefix is
        unseen (only when not ``add``)."""
        key = classes[0] if classes else 0
        if len(classes) > 1:
            key = (key << 32) | classes[1]
            for level, column in zip(self._levels, classes[2:]):
                prefix = level.add_one(key)[0] if add else level.find_one(key)
                if prefix < 0:
                    return -1
                key = (prefix << 32) | column
        return key

    def add_one(self, codes: list, classes: list) -> bool:
        """Append one row (its codes, their classes alongside) unless
        the block holds it; returns whether it was appended."""
        if not self._levels[-1].add_one(self._key_one(classes, add=True))[1]:
            return False
        self._tail.append(codes)
        self.size += 1
        return True

    def holds(self, classes: list) -> bool:
        """Does the block hold the row of these class codes (-1 for a
        value never interned)?"""
        if -1 in classes:
            return False
        key = self._key_one(classes, add=False)
        return key >= 0 and self._levels[-1].find_one(key) >= 0


class ColumnStore:
    """The blocks of one database: its relations, as codes.

    Holds the interner (stores copied from this one get a child of it),
    the blocks, per predicate the runs of arities in append order (so a
    predicate stored at two arities decodes in insertion order), and
    the cached join build sides and distinct counts.
    """

    def __init__(self, interner: ValueInterner | None = None):
        self.interner = interner if interner is not None else ValueInterner()
        self._blocks: dict[tuple[str, int], Block] = {}
        #: predicate -> [[arity, rows], ...] in append order
        self._runs: dict[str, list[list[int]]] = {}
        # (predicate, arity, probe positions) -> (block size, build side)
        self._build_cache: dict[tuple, tuple[int, tuple]] = {}
        # (predicate, positions) -> (block sizes, distinct keys)
        self._distinct: dict[tuple, tuple[tuple, int]] = {}

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------

    def block(self, predicate: str, arity: int) -> Block | None:
        """The block for (predicate, arity); None when never written."""
        return self._blocks.get((predicate, arity))

    def append(self, predicate: str, arity: int, codes: list, count: int):
        """Append ``count`` rows given as code columns, keeping the ones
        the relation lacks (first occurrence wins); returns their
        ascending positions in the batch."""
        block = self._blocks.get((predicate, arity))
        if block is None:
            block = self._blocks[(predicate, arity)] = Block(arity)
        classes = [self.interner.classes(column) for column in codes]
        fresh = block.append(codes, classes, count)
        if len(fresh):
            runs = self._runs.setdefault(predicate, [])
            if runs and runs[-1][0] == arity:
                runs[-1][1] += len(fresh)
            else:
                runs.append([arity, len(fresh)])
        return fresh

    def add_one(self, predicate: str, codes: list) -> bool:
        """Append one row given as codes unless the relation holds it;
        returns whether it was appended (see :meth:`Block.add_one`)."""
        arity = len(codes)
        block = self._blocks.get((predicate, arity))
        if block is None:
            block = self._blocks[(predicate, arity)] = Block(arity)
        # the class codes (:meth:`ValueInterner.classes` of one row): a
        # code is its own class unless it is an ``==`` variant
        variants = self.interner._classes
        classes = [variants.get(code, code) for code in codes] if variants else codes
        if not block.add_one(codes, classes):
            return False
        runs = self._runs.setdefault(predicate, [])
        if runs and runs[-1][0] == arity:
            runs[-1][1] += 1
        else:
            runs.append([arity, 1])
        return True

    def count(self, predicate: str) -> int:
        return sum(rows for _, rows in self._runs.get(predicate, ()))

    def predicates(self) -> list[str]:
        return list(self._runs)

    def sizes(self, predicates) -> dict[tuple[str, int], int]:
        """Rows per block of ``predicates`` (the mark of a delta)."""
        return {
            key: block.size for key, block in self._blocks.items()
            if key[0] in predicates
        }

    def rows(self, predicate: str, arity: int, start: int, stop: int) -> list[tuple]:
        """Rows [start, stop) of one block, decoded."""
        if arity == 0:
            return [()] * (stop - start)
        decode = self.interner.decode
        block = self._blocks[(predicate, arity)]
        return list(zip(*(decode(block.column(p)[start:stop]) for p in range(arity))))

    def decode(self, predicate: str, start: int = 0) -> list[tuple]:
        """The facts of ``predicate`` from its ``start``-th on, decoded,
        in insertion order."""
        facts: list[tuple] = []
        position = 0
        consumed: dict[int, int] = {}
        for arity, rows in self._runs.get(predicate, ()):
            begin = consumed.get(arity, 0)
            consumed[arity] = begin + rows
            if position + rows > start:
                skip = max(start - position, 0)
                facts.extend(self.rows(predicate, arity, begin + skip, begin + rows))
            position += rows
        return facts

    def copy(self, predicates=None) -> "ColumnStore":
        """A store over the same blocks (all, or those of
        ``predicates``), shared until written, interning into a child
        of this store's interner."""
        store = ColumnStore(self.interner.child())
        for key, block in self._blocks.items():
            if predicates is None or key[0] in predicates:
                store._blocks[key] = block.share()
        store._runs = {
            predicate: [list(run) for run in runs]
            for predicate, runs in self._runs.items()
            if predicates is None or predicate in predicates
        }
        return store

    # ------------------------------------------------------------------
    # planner statistics
    # ------------------------------------------------------------------

    def distinct_count(self, predicate: str, positions: tuple[int, ...]) -> int:
        """Distinct ``==`` keys over ``positions`` (ascending) among the
        rows long enough to have them — what a hash index over those
        positions would hold.  Cached until the relation grows; a cached
        join build side on the same positions is counted instead of
        sorting again."""
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
                classes = self.interner.classes
                keys = np.sort(sort_keys(
                    lambda p: classes(np.concatenate([b.column(p) for _, b in blocks])),
                    positions, order=False,
                ))
            count = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
        self._distinct[(predicate, positions)] = (sizes, count)
        return count

    # ------------------------------------------------------------------
    # join build sides
    # ------------------------------------------------------------------

    def sorted_keys(self, predicate: str, arity: int, key_positions: tuple[int, ...]):
        """Cached (stable sort order, sorted packed keys, prefix levels)
        join build side over class codes (see :func:`sort_keys`).

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
        classes = self.interner.classes
        entry = sort_keys(lambda p: classes(block.column(p)), key_positions)
        self._build_cache[key] = (block.size, entry)
        return entry


def sort_keys(column, key_positions: tuple[int, ...], order: bool = True):
    """(stable sort order, sorted packed keys, prefix levels) of a
    relation, given as ``column(position)`` -> code array, on its
    ``key_positions``; with ``order=False`` only the packed keys, in
    row order.

    Codes are < 2**31, so one int64 holds two: the key of a row is its
    first two codes packed.  Every further column packs with the dense
    rank of the key so far among the relation's distinct keys so far;
    those sorted distinct prefixes are the *levels* :func:`probe_keys`
    needs to pack a probe row the same way.  Packing keeps the
    lexicographic order of the code tuples.
    """
    packed = column(key_positions[0])
    levels = []
    for number, position in enumerate(key_positions[1:]):
        if number:
            distinct, packed = np.unique(packed, return_inverse=True)
            packed = packed.reshape(-1)
            levels.append(distinct)
        packed = (packed << 32) | column(position)
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
