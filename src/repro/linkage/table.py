"""Columnar person features and batch evidence kernels.

:meth:`FeatureSpec.matches` answers "does this feature match, not match,
or is it missing" for one pair of person dicts.  This module answers it
for arrays of person *row* pairs at once, over a :class:`PersonTable`
built once per set of persons:

* every feature is dictionary-encoded — distinct values plus one int64
  code per person — so a comparison costs one evaluation per distinct
  *value pair* that occurs, not one per person pair;
* the distances the default classifiers use have array kernels
  (equality → code compare; age gap and the parent's distance from one
  generation → float64 arithmetic on a year column; paternity → compares
  of lower-cased string codes);
* any other ``distance`` is evaluated by the scalar callable once per
  distinct value pair (memoised on the table — this is also how
  Levenshtein runs: once per surname pair, shared by every classifier
  and every call), any other ``pair_compare`` / ``direction`` once per
  distinct row pair.  No spec is rejected.

Every path yields exactly what the scalar callables yield: kernels only
cover cases where the array arithmetic *is* the scalar arithmetic
(IEEE float64 on exactly representable years, ``==`` through a dict
keyed like Python equality) and decline anything else to the generic
path, which calls the scalar itself.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .features import (
    GENERATION_YEARS,
    PARENT_MIN_AGE_GAP,
    FeatureSpec,
    _age_gap,
    _generation_gap,
    _paternity_match,
    parent_direction,
)
from .similarity import equality_distance, year_of

#: Evidence digits, directly usable as base-3 pattern digits.
MISSING, NO_MATCH, MATCH = 0, 1, 2

#: Exact types whose equal values are interchangeable for any callable.
_PLAIN = (str, int, float, bool)

#: Years beyond this are not exact in float64 once an offset is added.
_MAX_EXACT_YEAR = 2**52


class _Column:
    """One feature over all persons: distinct values + a code per person.

    Two persons share a code only when their values have the same exact
    type and are equal (so ``1``, ``1.0`` and ``True`` stay apart — a
    distance may ``str()`` them); values that are not plain scalars, and
    NaNs, get a code of their own per occurrence.  ``-1`` is missing.
    """

    __slots__ = ("values", "codes", "plain")

    def __init__(self, values: list, codes, plain: bool):
        self.values = values
        self.codes = codes
        #: every value is a plain non-NaN scalar (``==`` is dict equality)
        self.plain = plain


class PersonTable:
    """Person feature dicts as lazily built code / year columns.

    ``persons[row]`` is the dict the scalar callables read; the table
    assumes those dicts do not change once it exists.
    """

    def __init__(self, persons: Sequence[Mapping[str, Any]]):
        self.persons = list(persons)
        self._columns: dict[str, _Column] = {}
        #: (view, feature) -> per-person array, or None when declined
        self._views: dict[tuple[str, str], Any] = {}
        self._eq_space: dict[Any, int] = {}
        self._lower_space: dict[str, int] = {}
        #: (feature, right feature, distance, threshold) -> {value pair: verdict}
        self.memo: dict[tuple, dict[int, bool]] = {}

    def __len__(self) -> int:
        return len(self.persons)

    def column(self, feature: str) -> _Column:
        column = self._columns.get(feature)
        if column is not None:
            return column
        values: list = []
        index: dict[tuple, int] = {}
        codes = np.full(len(self.persons), -1, dtype=np.int64)
        plain = True
        for row, person in enumerate(self.persons):
            value = person.get(feature)
            if value is None:
                continue
            if type(value) in _PLAIN and value == value:
                key = (type(value), value)
                code = index.get(key)
                if code is None:
                    code = index[key] = len(values)
                    values.append(value)
            else:
                plain = False
                code = len(values)
                values.append(value)
            codes[row] = code
        column = self._columns[feature] = _Column(values, codes, plain)
        return column

    def _view(self, view: str, feature: str, of_values: Callable, dtype, missing):
        """A per-person array derived from a feature's distinct values:
        ``of_values(column)`` gives one entry per distinct value (or None
        to decline), ``missing`` fills persons without the feature.
        Built once per (view, feature)."""
        key = (view, feature)
        if key not in self._views:
            column = self.column(feature)
            of_value = of_values(column)
            if of_value is not None:
                # code -1 reads the trailing ``missing``
                of_value = np.asarray(of_value + [missing], dtype=dtype)[column.codes]
            self._views[key] = of_value
        return self._views[key]

    def eq_codes(self, feature: str):
        """Per-person codes under Python ``==`` (one space for all
        features, -1 missing), or None when the feature holds values
        whose equality a dict cannot decide (unhashable, NaN)."""
        space = self._eq_space

        def of_values(column: _Column):
            if not column.plain:
                return None
            return [space.setdefault(value, len(space)) for value in column.values]

        return self._view("eq", feature, of_values, np.int64, -1)

    def lower_codes(self, feature: str):
        """Per-person codes of ``str(value).lower()`` (one space for all
        features, -1 missing)."""
        space = self._lower_space

        def of_values(column: _Column):
            return [
                space.setdefault(str(value).lower(), len(space))
                for value in column.values
            ]

        return self._view("lower", feature, of_values, np.int64, -1)

    def years(self, feature: str):
        """Per-person ``float(year_of(value))`` (NaN missing), or None
        when some value has no year or one too large to be exact."""

        def of_values(column: _Column):
            try:
                years = [year_of(value) for value in column.values]
            except (TypeError, ValueError):
                return None
            if any(abs(year) > _MAX_EXACT_YEAR for year in years):
                return None
            return [float(year) for year in years]

        return self._view("year", feature, of_values, np.float64, np.nan)


# ----------------------------------------------------------------------
# kernels: fn(table, spec, left, right) -> bool array | None (decline)
# ----------------------------------------------------------------------

def _equality_kernel(table: PersonTable, spec: FeatureSpec, left, right):
    a = table.eq_codes(spec.name)
    b = table.eq_codes(spec.right_feature or spec.name)
    if a is None or b is None:
        return None
    # equality_distance is 0.0 / 1.0, each then compared with T_f
    return np.where(a[left] == b[right], 0.0 < spec.threshold, 1.0 < spec.threshold)


def _year_gap(table: PersonTable, spec: FeatureSpec, left, right):
    a = table.years(spec.name)
    b = table.years(spec.right_feature or spec.name)
    if a is None or b is None:
        return None
    return np.abs(a[left] - b[right])


def _age_gap_kernel(table: PersonTable, spec: FeatureSpec, left, right):
    gap = _year_gap(table, spec, left, right)
    return None if gap is None else gap < spec.threshold


def _generation_gap_kernel(table: PersonTable, spec: FeatureSpec, left, right):
    gap = _year_gap(table, spec, left, right)
    return None if gap is None else np.abs(gap - GENERATION_YEARS) < spec.threshold


_DISTANCE_KERNELS: dict[Callable, Callable] = {
    equality_distance: _equality_kernel,
    _age_gap: _age_gap_kernel,
    _generation_gap: _generation_gap_kernel,
}


def _paternity_kernel(table: PersonTable, left, right):
    """:func:`_paternity_match` as evidence digits."""
    name = table.lower_codes("name")[left]
    father_name = table.lower_codes("father_name")[right]
    left_surname = table.lower_codes("surname")[left]
    right_surname = table.lower_codes("surname")[right]
    present = (name >= 0) & (father_name >= 0) & (left_surname >= 0) & (right_surname >= 0)
    matched = (name == father_name) & (left_surname == right_surname)
    return np.where(present, np.where(matched, MATCH, NO_MATCH), MISSING)


def _parent_direction_kernel(table: PersonTable, left, right):
    """:func:`parent_direction` as a mask (missing birth date: False)."""
    years = table.years("birth_date")
    if years is None:
        return None
    return years[left] + PARENT_MIN_AGE_GAP <= years[right]


# ----------------------------------------------------------------------
# generic paths: the scalar callable, once per distinct input
# ----------------------------------------------------------------------

def _by_value_pair(table: PersonTable, spec: FeatureSpec, a: _Column, b: _Column,
                   codes_a, codes_b):
    """``distance(x, y) < T_f`` per row, calling the scalar distance once
    per distinct value pair the table has not seen yet."""
    memo = table.memo.setdefault(
        (spec.name, spec.right_feature, spec.distance, spec.threshold), {}
    )
    width = len(b.values)
    pairs, inverse = np.unique(codes_a * width + codes_b, return_inverse=True)
    verdicts = np.empty(len(pairs), dtype=bool)
    distance, threshold = spec.distance, spec.threshold
    for position, pair in enumerate(pairs.tolist()):
        verdict = memo.get(pair)
        if verdict is None:
            verdict = memo[pair] = bool(
                distance(a.values[pair // width], b.values[pair % width]) < threshold
            )
        verdicts[position] = verdict
    return verdicts[inverse.reshape(-1)]


def _by_row_pair(table: PersonTable, function: Callable, left, right):
    """``function(left person, right person)`` once per distinct row
    pair: (results, index of each row's result)."""
    size = len(table)
    pairs, inverse = np.unique(left * size + right, return_inverse=True)
    persons = table.persons
    results = [
        function(persons[pair // size], persons[pair % size])
        for pair in pairs.tolist()
    ]
    return results, inverse.reshape(-1)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def evidence(spec: FeatureSpec, table: PersonTable, left, right):
    """:meth:`FeatureSpec.matches` over row-index arrays, as digits
    (:data:`MISSING` / :data:`NO_MATCH` / :data:`MATCH`)."""
    if spec.pair_compare is not None:
        if spec.pair_compare is _paternity_match:
            return _paternity_kernel(table, left, right)
        results, inverse = _by_row_pair(table, spec.pair_compare, left, right)
        digits = np.asarray(
            [MISSING if r is None else MATCH if r else NO_MATCH for r in results],
            dtype=np.int64,
        )
        return digits[inverse]
    a = table.column(spec.name)
    b = table.column(spec.right_feature or spec.name)
    codes_a = a.codes[left]
    codes_b = b.codes[right]
    present = (codes_a >= 0) & (codes_b >= 0)
    kernel = _DISTANCE_KERNELS.get(spec.distance)
    matched = None if kernel is None else kernel(table, spec, left, right)
    digits = np.full(len(codes_a), MISSING, dtype=np.int64)
    if matched is None:
        digits[present] = np.where(
            _by_value_pair(table, spec, a, b, codes_a[present], codes_b[present]),
            MATCH, NO_MATCH,
        )
    else:
        digits[present] = np.where(matched[present], MATCH, NO_MATCH)
    return digits


def direction_mask(direction: Callable, table: PersonTable, left, right):
    """``direction(left person, right person)`` as a bool array."""
    if direction is parent_direction:
        mask = _parent_direction_kernel(table, left, right)
        if mask is not None:
            return mask
    results, inverse = _by_row_pair(table, direction, left, right)
    return np.asarray([bool(r) for r in results], dtype=bool)[inverse]
