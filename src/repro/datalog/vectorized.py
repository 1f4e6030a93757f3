"""Vectorized batch execution of planned rule bodies over code columns.

The engine's interpreter (:meth:`~repro.datalog.engine.Engine._match_from`)
runs a planned rule one binding at a time, a Python generator frame per
atom.  This module evaluates it whole-relation-at-a-time instead:
the binding set is a struct-of-arrays table (one int64
code column or float64 value column per variable slot), each planned
step is a handful of numpy calls over those columns, and a semi-naive
round costs O(numpy kernels) instead of O(firings) Python frames.

Execution model
---------------

* **atoms** are order-preserving hash joins: the relation (build side)
  is stable-argsorted by its packed probe-key columns once per version
  (cached in :class:`~repro.datalog.columns.ColumnStore`), the current
  binding table probes it with ``searchsorted``, and the grouped-arange
  expansion emits, for every binding row in order, its matching relation
  rows in insertion order — exactly the interpreter's nested-loop
  order, so the derived fact sequence is identical.  The expansion is
  streamed in morsels (see *Morsels* below);
* **relations are reduced before they are joined** when the rule stays
  columnar to the head and the atom binds a variable that dies right
  away (see *Reduction and multiplicities* below);
* **negations / fully-bound atoms** are semi-join membership masks over
  the same sorted keys;
* **comparisons / assignments** are boolean masks / new columns, with
  per-execute type checks (see *Numeric safety* below) guaranteeing the
  masks equal what Python operators would have produced row by row;
* **external functions with a batch form** (see
  :class:`~repro.datalog.builtins.FunctionRegistry`) are one step too:
  the argument columns are de-duplicated (``np.unique`` on the packed
  tuple), the batch form scores the distinct tuples in chunks of
  :data:`EXTERNAL_CHUNK` rows, and the result is scattered back as a
  float64 column — so a rule like Algorithm 7's ``P =
  $link_probability(C, X, Y), P > 0.5`` stays columnar from seed to
  head.  The batch form must equal the scalar form elementwise; the
  interpreter keeps calling the scalar and remains the oracle;
* **Skolem terms and existential heads** are minted columns: each
  distinct argument tuple (frontier, for a labelled null) is hashed
  once by :func:`~repro.datalog.terms.skolem` from its decoded values
  and interned — the values the per-row paths compute, keyed by
  ``Rule.origin`` for nulls;
* **monotone aggregates** (``msum`` / ``mcount`` / ``mmax`` / ``mmin``
  with ``<contributor>`` keys) are a running fold over the table in
  emission order through the engine's own accumulators, one ``update``
  per row, so totals fold in the identical order with identical float
  arithmetic; an undo log rolls a fold back if a runtime fallback comes
  after it (see :class:`_FoldLog`);
* **everything else cuts to a per-row tail**: at the first plan step the
  batch backend does not cover (``mprod``, aggregates without
  contributors, external functions registered without a batch form,
  complex terms inside body atoms), the surviving rows are decoded back
  to Python values, one binding per row, and the engine's interpreter
  takes each through the remaining plan steps and the head, sharing
  the engine's aggregate-state dicts.

Morsels
-------

No binding table holds more than :data:`MORSEL` rows.  A join step
computes the match count of every row of its input, then emits the
expansion — in the nested-loop order above — as consecutive slices of
at most ``MORSEL`` rows; a probe row with more matches than that is
split across slices.  :meth:`VectorizedRule._drive` runs
each slice through the remaining steps, depth first, before the join
makes the next one, and a seed delta larger than a morsel enters the
steps in slices too.  Every step but a join maps one row to at most one
row, so the tables that survive the last step, taken in the order they
arrive, are exactly the rows the whole-table evaluation would have
produced, in its order.  Memory no longer grows with a rule's expansion
(16 M rows per family-link rule at 10 000 persons), only with its
survivors.

Streaming keeps fallbacks pure: the survivors are collected, and only
once every slice has passed the batch steps do they go on to the head
(one :meth:`_VecFinal.emit` over their concatenation) or to the
per-row tail, which decodes and consumes them one morsel at a time.  An
aggregate fold is the one batch step that changes engine state, slice
by slice; a safety check failing in a later slice rolls its changes
back (:class:`_FoldLog`).  Batch externals see one morsel per call, and
de-duplicate their argument tuples within it.

Reduction and multiplicities
----------------------------

A monotone aggregate leaves every intermediate total behind as a fact,
so a relation like ``acc(X, Y, W)`` holds many rows per ``(X, Y)``, and a
rule that reads ``W`` through one threshold filter and never again
(Algorithm 6's ``cl_common``) would join all of them.  For rules with no
aggregate and no per-row tail, an atom that binds a variable no later
step and no head term reads has its relation reduced first —
O(|relation|) work, redone only when the relation has grown:

1. *selection*: constants, repeated variables, and the comparisons the
   plan places directly after the atom that read only the atom's own
   variables run against the relation's columns (a comparison overtakes
   one that stays in the table only if that one cannot raise, so what is
   left behind sees the rows it always saw);
2. *projection*: the dead variables are dropped;
3. *duplicate elimination*: the first occurrence of each remaining row
   is kept, in insertion order, with a count of the rows it stands for.

The table joins the reduced side on its already-bound variables.  The
semi-naive delta of a seeded plan is reduced the same way, which is what
de-duplicates the outer side.  The table carries the counts as an
optional int64 multiplicity column (:attr:`_Run.mult`: product on a
join, carried through filters), and ``firings`` is the sum of the
multiplicities reaching the head: ``EngineStats.rule_firings`` counts
*bindings of the body*, as the per-tuple paths do, not table rows.

Order is preserved because rows equal on every live column are
indistinguishable from here on, the join key is live on both sides
(every member of an outer group matches every member of a relation
group), and the nested loop enumerates (outer row, relation row)
lexicographically: the first binding of a pair of groups is the pair of
their first members, so first occurrences keep their relative order and
so does the first occurrence of every head tuple.  A joined table is
never sorted or de-duplicated — on a cross product nothing collapses and
the sort would cost more than the join.

Identity discipline
-------------------

Every value has a code of its own (``1`` and ``1.0`` too), and Python
``==`` is the code's *class* (see
:meth:`~repro.datalog.columns.ValueInterner.classes`): join keys,
membership, negation and equality tests compare classes, exactly as the
tuple-keyed dict indexes of the interpreter collapse equal values,
while a Skolem argument, an aggregate input or a head value reads the
code and so the value itself.  Every shortcut that could diverge from
Python scalar semantics is guarded:

* equality is corrected for NaN (a NaN value equals nothing, not even
  itself, while its class does);
* ordering comparisons require every operand value to be *safely*
  numeric (floats, bools, ints within 2**53); otherwise the rule takes
  a :class:`VectorRuntimeFallback` and the engine permanently hands it
  to the interpreter — which then either handles it (big ints) or
  raises the documented error (mixed-type ordering);
* arithmetic requires strictly-float operands so float64 kernels match
  Python float arithmetic bit for bit; division additionally checks for
  zero divisors (Python raises, numpy would emit inf);
* fallbacks leave the engine as the execution found it — the batch
  steps mutate nothing but append-only caches, and what the aggregate
  folds changed is rolled back — so the engine can re-run the rule on
  the interpreter without losing or double counting a contribution.

Deduplicating head emission keeps the output small: rows are unique-d on
the head-variable columns (first occurrence wins, preserving order — a
dropped row's facts were exact duplicates the database would have
rejected anyway), so a rule with 140k firings but 500 distinct heads
mints its Skolem values and nulls for those 500 only, and appends 500
rows of codes to the head relation's block (which keeps those it
lacks).  Nothing is decoded: the seed of a semi-naive round is a row
range of a block, and the head is code columns.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable

import numpy as np

from .atoms import Aggregate, Assignment, Atom, Comparison, Negation
from .columns import MAX_CODES, probe_keys, sort_keys
from .errors import EvaluationError
from .planner import JoinPlan, _calls_external
from .terms import Constant, Expr, FunctionTerm, Null, SkolemTerm, Variable, skolem, variables_of

#: Most rows any binding table holds: a join streams its expansion in
#: slices of at most this many rows, and each slice runs through the
#: rest of the rule before the next one is made (see *Morsels*).  Twice
#: this held the same at 2 000 to 10 000 persons but left serving
#: processes about 1 MB higher; 2 048 was half again slower.
MORSEL = 1 << 13

#: Distinct argument tuples handed to a batch external per call.  The
#: batch form allocates a few arrays per feature it compares; chunking
#: keeps that transient memory fixed however many rows the join produced.
EXTERNAL_CHUNK = 1 << 16


class VectorizationFallback(Exception):
    """The rule cannot be lowered to the batch backend (structural)."""


class VectorRuntimeFallback(Exception):
    """A per-execute safety check failed; the engine must permanently
    hand this rule to the interpreter.  It leaves the evaluator with
    the engine as the execution found it (no database change, aggregate
    folds rolled back)."""


class _Run:
    """The binding table: one column per slot, ``n`` rows.

    ``mult`` is the optional int64 multiplicity column: how many
    bindings of the nested-loop enumeration each row stands for (None:
    one each).  Only joining a reduced relation makes it differ from 1.
    """

    __slots__ = ("n", "cols", "mult")

    def __init__(self, n: int, cols: list, mult=None):
        self.n = n
        self.cols = cols
        self.mult = mult

    def col(self, slot: int):
        return self.cols[slot]

    def set_col(self, slot: int, values) -> None:
        cols = self.cols
        while len(cols) <= slot:
            cols.append(None)
        cols[slot] = values

    def with_col(self, slot: int, values) -> "_Run":
        """The same rows with one more (or one replaced) column."""
        out = _Run(self.n, list(self.cols), self.mult)
        out.set_col(slot, values)
        return out

    def gather(self, take) -> "_Run":
        """Rows at positions ``take`` (any numpy index), in that order."""
        cols = [None if c is None else c[take] for c in self.cols]
        mult = None if self.mult is None else self.mult[take]
        return _Run(int(len(take)), cols, mult)

    def filter(self, mask) -> "_Run":
        cols = [None if c is None else c[mask] for c in self.cols]
        mult = None if self.mult is None else self.mult[mask]
        return _Run(int(mask.sum()), cols, mult)

    def slices(self):
        """The rows in order, as views of at most :data:`MORSEL` rows."""
        for start in range(0, self.n, MORSEL):
            stop = min(start + MORSEL, self.n)
            cols = [None if c is None else c[start:stop] for c in self.cols]
            mult = None if self.mult is None else self.mult[start:stop]
            yield _Run(stop - start, cols, mult)


def _concat(runs: list) -> _Run:
    """The rows of ``runs`` one after the other.  They come from one
    execution of one rule, so they fill the same slots and all or none
    carry multiplicities."""
    if len(runs) == 1:
        return runs[0]
    cols = [
        None if c is None else np.concatenate([run.cols[slot] for run in runs])
        for slot, c in enumerate(runs[0].cols)
    ]
    mult = None
    if runs[0].mult is not None:
        mult = np.concatenate([run.mult for run in runs])
    return _Run(sum(run.n for run in runs), cols, mult)


# ----------------------------------------------------------------------
# key packing helpers
# ----------------------------------------------------------------------

def _dense(col):
    """Map an int64 column to dense ids < len(col) (order-irrelevant)."""
    _, inverse = np.unique(col, return_inverse=True)
    return inverse.astype(np.int64, copy=False)


def _pack_pair(a, b):
    return (a << 32) | b


def _pack_rows(columns):
    """One int64 key per row of ``(kind, column)`` pairs: equal keys iff
    the rows agree column by column (floats compared by bit pattern)."""
    packed = None
    for number, (kind, col) in enumerate(columns):
        if kind == "float":
            col = _dense(np.ascontiguousarray(col).view(np.int64))
        if packed is None:
            packed = col
        else:  # one column's codes or dense ids fit 31 bits, a packed pair not
            packed = _pack_pair(packed if number == 1 else _dense(packed), col)
    return packed


def _float_codes(interner, col):
    """Class codes of a float64 column via the shared interner.

    Unique values are looked up through the interner dict, so Python
    equality decides the match (``2.0`` finds the class of an interned
    ``2``).  Unseen values — including every NaN, which can equal no
    interned value — map to -1 (guaranteed miss).
    """
    uniques, inverse = np.unique(col, return_inverse=True)
    lookup = interner.lookup
    codes = np.fromiter(
        (lookup(value) for value in uniques.tolist()),
        dtype=np.int64,
        count=len(uniques),
    )
    return codes[inverse.reshape(-1)]


def _probe_keys(run: _Run, probe_specs, kinds, interner, levels):
    """The packed probe key of every row (see
    :func:`~repro.datalog.columns.probe_keys`) and the mask of rows that
    can match at all, or None when all can: a value the interner never
    saw, or a key prefix the relation lacks, matches no fact."""
    columns = []
    missing = None
    for kind, payload in probe_specs:
        if kind == "slot":
            col = run.col(payload)
            if kinds[payload] == "float":
                col = _float_codes(interner, col)
            else:
                col = interner.classes(col)
        else:
            col = np.full(run.n, interner.lookup(payload), dtype=np.int64)
        miss = col == -1
        if miss.any():
            missing = miss if missing is None else (missing | miss)
            col = np.where(miss, 0, col)
        columns.append(col)
    probe, known = probe_keys(levels, columns)
    if missing is not None:
        known = ~missing if known is None else known & ~missing
    return probe, known


def _equals_value(interner, codes, value):
    """Mask of the codes whose value is ``== value`` (a NaN constant
    equals nothing)."""
    target = interner.lookup(value)
    if target == -1 or (isinstance(value, float) and value != value):
        return np.zeros(len(codes), dtype=bool)
    return interner.classes(codes) == target


def _equal_codes(interner, a, b):
    """Mask of the rows whose values in code columns ``a`` and ``b``
    are ``==`` (a NaN equals nothing, not even itself)."""
    _, _, _, is_nan = interner.tables()
    return (interner.classes(a) == interner.classes(b)) & ~is_nan[a]


def _found(keys, probe, valid):
    """Mask of the probe keys present in the sorted build ``keys``, for
    the rows ``valid`` allows (None: all)."""
    at = np.searchsorted(keys, probe)
    np.minimum(at, len(keys) - 1, out=at)
    found = keys[at] == probe
    if valid is not None:
        found &= valid
    return found


def _decode(interner, kind: str, col) -> list:
    """The Python values of a column: floats as they are, codes through
    the interner."""
    if kind == "float":
        return col.tolist()
    return interner.decode(col)


def _distinct_tuples(interner, n: int, args):
    """Per row of ``n``, the index of its distinct tuple of ``args`` —
    ``(kind, column)`` pairs, or ``("const", value)`` — and those
    tuples, decoded."""
    columns = [(kind, col) for kind, col in args if kind != "const"]
    if not columns:
        return np.zeros(n, dtype=np.int64), [tuple(value for _, value in args)]
    _, first, inverse = np.unique(
        _pack_rows(columns), return_index=True, return_inverse=True
    )
    decoded = [
        repeat(col, len(first)) if kind == "const"
        else _decode(interner, kind, col[first])
        for kind, col in args
    ]
    return inverse.reshape(-1), list(zip(*decoded))


def _mint(interner, n: int, args, make):
    """The code column of ``make(values)`` for ``n`` rows, where
    ``values`` is a row's tuple of ``args`` (see :func:`_distinct_tuples`),
    computed once per distinct tuple and interned.  Codes keep their
    value's type, so ``make`` sees the values the per-row paths would
    pass it."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    inverse, tuples = _distinct_tuples(interner, n, args)
    codes = np.fromiter(
        map(interner.intern, map(make, tuples)), dtype=np.int64, count=len(tuples)
    )
    return codes[inverse]


def _column(kind: str, payload, run: "_Run"):
    """A lowered value's column over ``run`` (a scalar broadcast)."""
    if kind == "const":
        return ("const", payload)
    col = payload(run)
    if np.ndim(col) == 0:  # constant-only arithmetic
        col = np.full(run.n, col, dtype=np.float64)
    return (kind, col)


#: :class:`_FoldLog` marker: the fold added the contribution
_ADDED = object()


class _FoldLog:
    """The accumulator changes one execution's aggregate folds made.

    A :class:`VectorRuntimeFallback` raised after a fold (in a later
    morsel, a later step or the head) puts the engine's aggregate state
    back with :meth:`rollback` before it propagates, so the interpreter
    re-runs the rule on exactly the state it would have seen."""

    __slots__ = ("states", "changes", "created")

    def __init__(self, states: dict):
        self.states = states
        #: (state, contributor key, previous value or _ADDED, previous total)
        self.changes: list[tuple] = []
        #: keys of the states the folds created
        self.created: list[tuple] = []

    def rollback(self) -> None:
        for state, key, previous, total in reversed(self.changes):
            if previous is _ADDED:
                del state.contributions[key]
            else:
                state.contributions[key] = previous
            state.total = total
        for key in self.created:
            del self.states[key]
        self.clear()

    def clear(self) -> None:
        self.changes.clear()
        self.created.clear()


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------

class _VecLowering:
    """Single-use context lowering one planned rule to vector steps."""

    def __init__(self, engine, rule, plan: JoinPlan, reduce: bool):
        self.engine = engine
        self.rule = rule
        self.plan = plan
        #: reduce relations before joining them; only sound when the rule
        #: stays columnar to the head (a per-row tail reads every binding)
        self.reduce = reduce
        self.store = engine.database.column_store()
        self.interner = self.store.interner
        self.slots: dict[str, int] = {}
        #: per-slot column kind, parallel to ``slots``: "code" | "float"
        self.kinds: list[str] = []
        self.bound: set[str] = set()
        self.steps: list[Callable[[_Run], _Run]] = []
        self.joins_lowered = 0
        #: [rows seen, distinct argument tuples scored] summed over the
        #: rule's batch externals and executions; None without one
        self.external: list[int] | None = None
        #: plan steps (comparisons) already applied inside a reduction
        self.pushed: set[int] = set()
        #: [relation rows scanned, rows kept] summed over the rule's
        #: reduced atoms and executions; None without one
        self.reduced: list[int] | None = None
        #: undo log of the rule's aggregate folds; None without one
        self.folds: _FoldLog | None = None

    def slot_for(self, name: str, kind: str) -> int:
        index = self.slots.get(name)
        if index is None:
            index = self.slots[name] = len(self.kinds)
            self.kinds.append(kind)
        return index

    # -- value producers ------------------------------------------------

    def lower_value(self, term):
        """Lower a term to ("code"|"float", fn(run) -> column) or
        ("const", value).  Raises VectorizationFallback on anything only
        the per-row paths cover (a function without a batch form)."""
        if isinstance(term, Constant):
            return ("const", term.value)
        if isinstance(term, Variable):
            slot = self.slots.get(term.name)
            if slot is None:
                raise VectorizationFallback(f"variable {term.name} unbound")
            kind = self.kinds[slot]
            return (kind, lambda run, i=slot: run.col(i))
        if isinstance(term, Expr):
            return ("float", self._lower_arithmetic(term))
        if isinstance(term, FunctionTerm):
            return ("float", self._lower_external(term))
        if isinstance(term, SkolemTerm):
            return ("code", self._lower_skolem(term))
        raise VectorizationFallback(
            f"term {term} needs per-row evaluation"
        )

    def _lower_skolem(self, term: SkolemTerm):
        """fn(run) -> code column of ``#name(args)``: each distinct
        argument tuple is hashed once, to the value the per-row paths
        compute for it, and interned."""
        lowered = [self.lower_value(arg) for arg in term.args]
        name = term.name
        interner = self.interner

        def producer(run: _Run):
            args = [_column(kind, payload, run) for kind, payload in lowered]
            return _mint(interner, run.n, args, lambda values: skolem(name, values))

        return producer

    def _lower_external(self, term: FunctionTerm):
        """fn(run) -> float64 column of ``$name(args)`` through the
        function's batch form: one call per chunk of *distinct* argument
        tuples.  Without a batch form (or without any column argument)
        the call stays per-row territory, exactly as before."""
        functions = self.engine.functions
        name = term.name
        if functions.batch(name) is None:
            raise VectorizationFallback(f"${name} has no batch form")
        lowered = [self.lower_value(arg) for arg in term.args]
        if all(kind == "const" for kind, _ in lowered):
            raise VectorizationFallback(f"${name} takes no column argument")
        values = self.interner.values
        if self.external is None:
            self.external = [0, 0]
        stats = self.external

        def producer(run: _Run):
            batch = functions.batch(name)
            if batch is None:  # re-registered scalar-only since lowering
                raise VectorRuntimeFallback(f"${name} lost its batch form")
            args: list = []
            columns = []
            for kind, col in (_column(kind, payload, run) for kind, payload in lowered):
                args.append(col)
                if kind != "const":
                    columns.append((kind, col))
            _, first, inverse = np.unique(
                _pack_rows(columns), return_index=True, return_inverse=True
            )
            distinct = len(first)
            args = [
                arg[first] if isinstance(arg, np.ndarray) else arg for arg in args
            ]
            out = np.empty(distinct, dtype=np.float64)
            for start in range(0, distinct, EXTERNAL_CHUNK):
                stop = min(start + EXTERNAL_CHUNK, distinct)
                chunk = tuple(
                    arg[start:stop] if isinstance(arg, np.ndarray) else arg
                    for arg in args
                )
                result = np.asarray(batch(values, chunk), dtype=np.float64)
                if result.shape != (stop - start,):
                    raise EvaluationError(
                        f"batch form of ${name} returned shape {result.shape} "
                        f"for {stop - start} rows"
                    )
                out[start:stop] = result
            stats[0] += run.n
            stats[1] += distinct
            return out[inverse.reshape(-1)]

        return producer

    def _float_operand(self, term):
        """fn(run) -> float64 column-or-scalar, guaranteed to match the
        Python float arithmetic of the interpreter exactly."""
        kind, payload = self.lower_value(term)
        if kind == "float":
            return payload
        if kind == "const":
            value = payload
            if isinstance(value, float):
                return lambda run: value
            if isinstance(value, (int, bool)) and -(2**53) <= value <= 2**53:
                # Python promotes the int exactly in mixed arithmetic
                as_float = float(value)
                return lambda run: as_float
            raise VectorizationFallback(
                f"non-float constant {value!r} in arithmetic"
            )
        # code column: every value must be a strict float, checked per
        # execute — int operands would make Python produce ints
        interner = self.interner

        def producer(run, codes_fn=payload):
            codes = codes_fn(run)
            floats, is_float, _, _ = interner.tables()
            if not is_float[codes].all():
                raise VectorRuntimeFallback("non-float operand in arithmetic")
            return floats[codes]

        return producer

    def _lower_arithmetic(self, expr: Expr):
        if expr.op == "neg":
            inner = self._float_operand(expr.args[0])
            return lambda run: -inner(run)
        if expr.op == "%":
            raise VectorizationFallback("modulo needs per-row evaluation")
        lhs = self._float_operand(expr.args[0])
        rhs = self._float_operand(expr.args[1])
        op = expr.op
        if op == "+":
            return lambda run: lhs(run) + rhs(run)
        if op == "-":
            return lambda run: lhs(run) - rhs(run)
        if op == "*":
            return lambda run: lhs(run) * rhs(run)
        if op == "/":
            def divide(run):
                denominator = rhs(run)
                if isinstance(denominator, float):
                    if denominator == 0.0:
                        raise VectorRuntimeFallback("division by zero")
                elif (denominator == 0.0).any():
                    raise VectorRuntimeFallback("division by zero")
                return lhs(run) / denominator

            return divide
        raise VectorizationFallback(f"operator {op!r} not vectorized")

    # -- reduction ------------------------------------------------------

    def _reduction(self, atom: Atom, after: int):
        """What can be taken out of ``atom``'s relation before it meets
        the binding table, or None when no variable it binds dies.

        Returns ``(pushed, live)``: ``pushed`` numbers the comparisons
        the plan places directly after the atom (plan step ``after``; -1
        for the seed) that read only the atom's variables — recorded in
        :attr:`pushed` so the step loop skips them; ``live`` holds the
        names some later step or the head still reads.  A variable whose
        slot holds floats (bound by an assignment) keeps its comparisons
        in the table: the relation side would offer codes for it.
        """
        if not self.reduce:
            return None
        order = self.plan.order
        literals = self.rule.body
        names = {t.name for t in atom.terms if isinstance(t, Variable)}
        local = {
            name for name in names
            if name not in self.bound or self.kinds[self.slots[name]] == "code"
        }
        pushed: list[int] = []
        live = {v.name for v in self.rule.full_head_variables()}
        pushing = True
        for number in range(after + 1, len(order)):
            literal = literals[order[number]]
            reads = {v.name for v in literal.variables()}
            if pushing and isinstance(literal, Comparison):
                if reads <= local and not _calls_external(literal):
                    pushed.append(number)
                    continue
                # a later comparison may overtake this one only if it
                # cannot raise on the rows that comparison would remove
                pushing = literal.op in ("==", "!=") and all(
                    isinstance(side, (Variable, Constant))
                    for side in (literal.lhs, literal.rhs)
                )
            else:
                pushing = False
            live |= reads
            if isinstance(literal, Assignment):
                live.add(literal.variable.name)  # re-assignment compares
        if names - self.bound <= live:
            return None
        if self.reduced is None:
            self.reduced = [0, 0]
        self.pushed.update(pushed)
        return pushed, live

    def _pushed_masks(self, pushed: list[int]):
        """The mask functions of the comparisons at plan steps ``pushed``
        (lowered once their variables have slots)."""
        literals = self.rule.body
        comparisons = [literals[self.plan.order[number]] for number in pushed]
        return [self._comparison_mask(c.op, c.lhs, c.rhs) for c in comparisons]

    # -- seed -----------------------------------------------------------

    def lower_seed(self, atom: Atom):
        """Seed loader: the delta — rows [start, stop) of the atom's
        block — as the initial run, with the interpreter's seed
        constant and repeat checks (Python ``!=``) as masks; the delta
        is then reduced like any other relation."""
        reduction = self._reduction(atom, -1)
        bind_pairs: list[tuple[int, int]] = []
        const_checks: list[tuple[int, Any]] = []
        repeat_checks: list[tuple[int, int]] = []
        fresh: dict[str, int] = {}
        first_at: dict[str, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name in fresh:
                    repeat_checks.append((first_at[term.name], position))
                else:
                    slot = self.slot_for(term.name, "code")
                    fresh[term.name] = slot
                    first_at[term.name] = position
                    bind_pairs.append((slot, position))
            elif isinstance(term, Constant):
                const_checks.append((position, term.value))
            else:
                raise VectorizationFallback(
                    f"seed atom {atom} has a complex term"
                )
        masks: list = []
        keep: tuple[int, ...] = ()
        if reduction is not None:
            pushed, live = reduction
            masks = self._pushed_masks(pushed)
            fresh = {name: slot for name, slot in fresh.items() if name in live}
            keep = tuple(fresh.values())
        self.bound.update(fresh)
        predicate = atom.predicate
        arity = atom.arity
        store = self.store
        interner = self.interner
        n_slots_at_seed = len(self.kinds)
        stats = self.reduced

        def entry(seed) -> _Run:
            start, stop = seed
            block = store.block(predicate, arity)
            cols: list = [None] * n_slots_at_seed
            if block is None or stop <= start:
                return _Run(0, cols)

            def column(position):
                return block.column(position)[start:stop]

            select = None
            for position, expected in const_checks:
                hit = _equals_value(interner, column(position), expected)
                select = hit if select is None else select & hit
            for first, position in repeat_checks:
                hit = _equal_codes(interner, column(first), column(position))
                select = hit if select is None else select & hit
            for slot, position in bind_pairs:
                cols[slot] = column(position) if select is None else column(position)[select]
            run = _Run(stop - start if select is None else int(select.sum()), cols)
            rows = run.n
            if reduction is not None:
                stats[0] += rows
                run = _reduce(run, masks, keep)
                stats[1] += run.n
            return run

        return entry

    # -- atoms ----------------------------------------------------------

    def lower_atom(self, atom: Atom, after: int):
        """One positive-atom step (plan step ``after``): membership,
        probe join, or scan — against the relation's block, or against
        its reduction when a variable the atom binds dies right away."""
        reduction = self._reduction(atom, after)
        if reduction is not None:
            return self._lower_reduced_atom(atom, *reduction)
        probe_specs: list[tuple[str, Any]] = []   # ("slot", i) | ("const", v)
        probe_positions: list[int] = []
        bind_pairs: list[tuple[int, int]] = []
        check_pairs: list[tuple[int, int]] = []
        fresh: dict[str, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name in self.bound:
                    probe_positions.append(position)
                    probe_specs.append(("slot", self.slots[term.name]))
                elif term.name in fresh:
                    check_pairs.append((fresh[term.name], position))
                else:
                    slot = self.slot_for(term.name, "code")
                    fresh[term.name] = slot
                    bind_pairs.append((slot, position))
            elif isinstance(term, Constant):
                probe_positions.append(position)
                probe_specs.append(("const", term.value))
            else:
                raise VectorizationFallback(
                    f"atom {atom} has a complex term"
                )
        self.bound.update(fresh)
        predicate = atom.predicate
        arity = atom.arity
        store = self.store
        positions = tuple(probe_positions)

        def build():
            block = store.block(predicate, arity)
            if block is None or block.size == 0:
                return None
            return block, None

        return self._join_step(
            build,
            lambda block: store.sorted_keys(predicate, arity, positions),
            probe_specs, positions, bind_pairs, check_pairs,
            membership=len(positions) == arity and not bind_pairs and not check_pairs,
        )

    def _lower_reduced_atom(self, atom: Atom, pushed: list[int], live: set[str]):
        """The atom step over the reduced relation: constants, repeated
        variables and the pushed comparisons select on the relation side,
        dead variables are projected away, duplicates collapse into a
        count, and the table joins what is left on its bound variables.
        The reduction is redone only when the relation has grown."""
        #: (slot, first position) of the variables: already bound (the
        #: join keys) / fresh and live / all of them
        probe_pairs: list[tuple[int, int]] = []
        bind_pairs: list[tuple[int, int]] = []
        view_pairs: list[tuple[int, int]] = []
        const_checks: list[tuple[int, Any]] = []
        #: (first position, position, fresh?) — a fresh repeat is a
        #: Python ``==`` (NaN equals nothing), a bound one an index probe
        repeat_checks: list[tuple[int, int, bool]] = []
        first_at: dict[str, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                name = term.name
                if name in first_at:
                    repeat_checks.append(
                        (first_at[name], position, name not in self.bound)
                    )
                    continue
                first_at[name] = position
                if name in self.bound:
                    slot = self.slots[name]
                    probe_pairs.append((slot, position))
                else:
                    slot = self.slot_for(name, "code")
                    if name in live:
                        bind_pairs.append((slot, position))
                view_pairs.append((slot, position))
            elif isinstance(term, Constant):
                const_checks.append((position, term.value))
            else:
                raise VectorizationFallback(
                    f"atom {atom} has a complex term"
                )
        masks = self._pushed_masks(pushed)
        self.bound.update(first_at.keys() & live)
        predicate = atom.predicate
        arity = atom.arity
        store = self.store
        interner = self.interner
        kinds = self.kinds
        probe_specs = [("slot", slot) for slot, _ in probe_pairs]
        positions = tuple(position for _, position in probe_pairs)
        kept = probe_pairs + bind_pairs
        keep = tuple(slot for slot, _ in kept)
        stats = self.reduced
        cache: list = [0, None]  # relation size, its _Reduced (None: empty)

        def reduce_block(block):
            select = None
            for position, value in const_checks:
                hit = interner.classes(block.column(position)) == interner.lookup(value)
                select = hit if select is None else select & hit
            for first, position, is_fresh in repeat_checks:
                codes, other = block.column(first), block.column(position)
                if is_fresh:
                    hit = _equal_codes(interner, codes, other)
                else:
                    hit = interner.classes(codes) == interner.classes(other)
                select = hit if select is None else select & hit
            cols: list = [None] * len(kinds)
            for slot, position in view_pairs:
                col = block.column(position)
                cols[slot] = col if select is None else col[select]
            size = block.size if select is None else int(select.sum())
            run = _reduce(_Run(size, cols), masks, keep)
            return _Reduced(run, kept) if run.n else None

        def build():
            block = store.block(predicate, arity)
            size = 0 if block is None else block.size
            if size != cache[0]:
                cache[1] = reduce_block(block)
                cache[0] = size
            side = cache[1]
            stats[0] += size
            if side is None:
                return None
            stats[1] += side.size
            return side, side.mult

        return self._join_step(
            build, lambda side: side.sorted_keys(positions, interner),
            probe_specs, positions, bind_pairs, (), membership=False,
        )

    def _join_step(
        self, build, sorted_keys, probe_specs, positions, bind_pairs, check_pairs,
        membership: bool,
    ):
        """The step joining the table to a build side.  ``build()`` is
        ``(block-shaped relation, its row multiplicities or None)``, or
        None when empty; ``sorted_keys(relation)`` its cached
        :func:`~repro.datalog.columns.sort_keys` on ``positions``."""
        self.joins_lowered += 1
        interner = self.interner
        kinds = self.kinds

        if membership:
            def membership_step(run: _Run) -> _Run:
                built = build()
                if built is None:
                    return _Run(0, run.cols)
                if not positions:  # zero-arity atom: it holds, so all rows do
                    return run
                _, keys, levels = sorted_keys(built[0])
                probe, valid = _probe_keys(run, probe_specs, kinds, interner, levels)
                return run.filter(_found(keys, probe, valid))

            return membership_step

        def joined(run: _Run, side, mult, probe_rep, rows) -> _Run:
            out = run.gather(probe_rep)
            for slot, position in bind_pairs:
                out.set_col(slot, side.column(position)[rows])
            if mult is not None:
                # each side row stands for ``mult`` relation rows
                taken = mult[rows]
                out.mult = taken if out.mult is None else out.mult * taken
            return _apply_checks(out, side, rows, check_pairs, interner)

        if positions:
            def probe_slices(run: _Run, side, mult):
                """Output rows [start, stop) of the expansion — probe row
                by probe row, each one's matches in relation order — for
                consecutive ranges of at most MORSEL rows."""
                order, keys, levels = sorted_keys(side)
                probe, valid = _probe_keys(run, probe_specs, kinds, interner, levels)
                left = np.searchsorted(keys, probe, side="left")
                counts = np.searchsorted(keys, probe, side="right") - left
                if valid is not None:
                    counts[~valid] = 0
                ends = np.cumsum(counts)
                starts = ends - counts
                bounds = np.arange(0, int(ends[-1]) + MORSEL, MORSEL)
                bounds[-1] = ends[-1]
                # the probe rows holding each range's first and last row;
                # those two may contribute only part of their matches
                firsts = np.searchsorted(ends, bounds[:-1], side="right").tolist()
                lasts = np.searchsorted(ends, bounds[1:] - 1, side="right").tolist()
                for start, stop, first, last in zip(
                    bounds[:-1].tolist(), bounds[1:].tolist(), firsts, lasts
                ):
                    taken = counts[first : last + 1].copy()
                    taken[0] -= start - starts[first]
                    taken[-1] -= ends[last] - stop
                    probe_rep = np.repeat(np.arange(first, last + 1), taken)
                    within = np.arange(start, stop) - starts[probe_rep]
                    rows = order[left[probe_rep] + within]
                    yield joined(run, side, mult, probe_rep, rows)

            return _Join(build, probe_slices)

        def scan_slices(run: _Run, side, mult):
            """The cross product in nested-loop order, MORSEL rows at a time."""
            size = side.size
            for start in range(0, run.n * size, MORSEL):
                stop = min(start + MORSEL, run.n * size)
                probe_rep, rows = np.divmod(np.arange(start, stop), size)
                yield joined(run, side, mult, probe_rep, rows)

        return _Join(build, scan_slices)

    def lower_negation(self, negation: Negation):
        """Fully-bound anti-join: drop rows whose key is in the relation."""
        atom = negation.atom
        probe_specs: list[tuple[str, Any]] = []
        for term in atom.terms:
            if isinstance(term, Variable):
                slot = self.slots.get(term.name)
                if slot is None:
                    raise VectorizationFallback(
                        f"negated atom {atom} reads an unbound variable"
                    )
                probe_specs.append(("slot", slot))
            elif isinstance(term, Constant):
                probe_specs.append(("const", term.value))
            else:
                raise VectorizationFallback(
                    f"negated atom {atom} has a complex term"
                )
        predicate = atom.predicate
        arity = atom.arity
        positions = tuple(range(arity))
        store = self.store
        interner = self.interner
        kinds = self.kinds

        def negation_step(run: _Run) -> _Run:
            if not positions:  # zero-arity: when the relation holds, drop all
                block = store.block(predicate, arity)
                return run if block is None or block.size == 0 else _Run(0, run.cols)
            built = store.sorted_keys(predicate, arity, positions)
            if built is None:
                return run
            _, keys, levels = built
            probe, valid = _probe_keys(run, probe_specs, kinds, interner, levels)
            return run.filter(~_found(keys, probe, valid))

        return negation_step

    # -- comparisons / assignments --------------------------------------

    def lower_comparison(self, comparison: Comparison):
        mask_fn = self._comparison_mask(
            comparison.op, comparison.lhs, comparison.rhs
        )
        return lambda run: _mask_filter(run, mask_fn(run))

    def _comparison_mask(self, op: str, lhs_term, rhs_term):
        """fn(run) -> bool mask replicating Python comparison semantics."""
        lhs = self.lower_value(lhs_term)
        rhs = self.lower_value(rhs_term)
        interner = self.interner

        if op in ("==", "!="):
            if lhs[0] == "code" and rhs[0] == "code":
                lfn, rfn = lhs[1], rhs[1]

                def code_equality(run):
                    equal = _equal_codes(interner, lfn(run), rfn(run))
                    return equal if op == "==" else ~equal

                return code_equality
            if "code" in (lhs[0], rhs[0]) and "const" in (lhs[0], rhs[0]):
                code_fn = lhs[1] if lhs[0] == "code" else rhs[1]
                value = lhs[1] if lhs[0] == "const" else rhs[1]

                def const_equality(run):
                    hit = _equals_value(interner, code_fn(run), value)
                    return hit if op == "==" else ~hit

                return const_equality
            # a computed float is involved: equality through float images
            return self._numeric_mask(op, lhs, rhs, equality=True)
        return self._numeric_mask(op, lhs, rhs, equality=False)

    def _numeric_mask(self, op: str, lhs, rhs, equality: bool):
        """Comparison via float images.  For ordering, *every* operand
        value must be safely numeric (Python raises on mixed-type
        ordering; big ints compare exactly in Python — both fall back).
        For equality, unsafe values force a fallback too: a float can
        equal an out-of-range int exactly in Python, and a non-numeric
        never equals a number — but both require knowing which is which,
        and the safe mask alone cannot tell.  Constants are resolved at
        lowering time."""
        interner = self.interner

        def resolve(side):
            kind, payload = side
            if kind == "float":
                return payload
            if kind == "const":
                value = payload
                if isinstance(value, (bool, int, float)) and (
                    isinstance(value, float) or -(2**53) <= value <= 2**53
                ):
                    as_float = float(value)
                    return lambda run: as_float
                raise VectorizationFallback(
                    f"constant {value!r} is not safely numeric"
                )

            def from_codes(run, codes_fn=payload):
                codes = codes_fn(run)
                floats, _, is_safe, _ = interner.tables()
                if not is_safe[codes].all():
                    raise VectorRuntimeFallback(
                        "comparison over non-numeric or unsafe values"
                    )
                return floats[codes]

            return from_codes

        lfn = resolve(lhs)
        rfn = resolve(rhs)
        if op == "==":
            return lambda run: lfn(run) == rfn(run)
        if op == "!=":
            return lambda run: lfn(run) != rfn(run)
        if op == "<":
            return lambda run: lfn(run) < rfn(run)
        if op == "<=":
            return lambda run: lfn(run) <= rfn(run)
        if op == ">":
            return lambda run: lfn(run) > rfn(run)
        return lambda run: lfn(run) >= rfn(run)

    def lower_assignment(self, assignment: Assignment):
        name = assignment.variable.name
        if name in self.bound:
            # bound re-assignment is an equality check (plain Python ==)
            mask_fn = self._comparison_mask(
                "==", assignment.variable, assignment.expression
            )
            return lambda run: _mask_filter(run, mask_fn(run))
        kind, payload = self.lower_value(assignment.expression)
        if kind == "const":
            code = self.interner.intern(payload)
            slot = self.slot_for(name, "code")
            self.bound.add(name)

            def bind_const(run: _Run) -> _Run:
                return run.with_col(slot, np.full(run.n, code, dtype=np.int64))

            return bind_const
        slot = self.slot_for(name, kind)
        self.bound.add(name)

        def bind_value(run: _Run, fn=payload) -> _Run:
            return run.with_col(slot, fn(run))

        return bind_value

    # -- monotone aggregates --------------------------------------------

    def lower_aggregate(self, aggregate: Aggregate):
        """``T = f(V, <C...>)`` as a running fold over the table, row by
        row in emission order, through the engine's own accumulators
        (:class:`~repro.datalog.engine._AggregateState`): each distinct
        group and contributor tuple is decoded once, each row costs one
        ``update``, and the totals come back as a column — the same
        totals, in the same order, from the same float additions as the
        per-row paths.  Rows whose contribution improved nothing are
        dropped when the aggregate is skippable (see
        ``Engine._aggregate_skippable``).  Every change lands in
        :attr:`folds`, which a later runtime fallback rolls back."""
        from .engine import _AggregateState

        engine = self.engine
        rule = self.rule
        func = aggregate.func
        if func not in ("msum", "mcount", "mmax", "mmin"):
            raise VectorizationFallback(f"{func} folds per row")
        if not aggregate.contributors:
            raise VectorizationFallback("an aggregate without <contributors> folds per row")
        try:
            group_slots = tuple(
                self.slots[name]
                for name in engine._aggregate_group_vars(rule, aggregate)
            )
            contributor_slots = tuple(
                self.slots[v.name] for v in aggregate.contributors
            )
        except KeyError:
            raise VectorizationFallback(
                f"aggregate {aggregate} reads an unbound variable"
            ) from None
        if func == "mcount":
            value_kind, value_fn = self.lower_value(aggregate.expression)
            result_kind = "code"  # the totals are ints
        else:
            # float operands give float totals, as a float64 column
            value_kind, value_fn = "float", self._float_operand(aggregate.expression)
            result_kind = "float"
        skippable = engine._aggregate_skippable(rule, aggregate)
        result_slot = self.slot_for(aggregate.variable.name, result_kind)
        self.bound.add(aggregate.variable.name)
        if self.folds is None:
            self.folds = _FoldLog(engine._aggregate_states)
        folds = self.folds
        states = engine._aggregate_states
        rule_id, aggregate_id = id(rule), id(aggregate)
        kinds = self.kinds
        interner = self.interner

        def keys(run: _Run, slots):
            """Per row, the index of its distinct tuple over ``slots``;
            and those tuples, decoded."""
            columns = [(kinds[slot], run.col(slot)) for slot in slots]
            for kind, col in columns:
                if kind == "float" and np.isnan(col).any():
                    # per row, every NaN is a key of its own
                    raise VectorRuntimeFallback("NaN in an aggregate key")
            inverse, tuples = _distinct_tuples(interner, run.n, columns)
            return inverse.tolist(), tuples

        def contribution_values(run: _Run) -> list:
            kind, col = _column(value_kind, value_fn, run)
            if kind == "const":
                return [col] * run.n
            return _decode(interner, kind, col)

        def fold(run: _Run) -> _Run:
            values = contribution_values(run)
            groups, group_keys = keys(run, group_slots)
            contributors, contributor_keys = keys(run, contributor_slots)
            changes = folds.changes
            group_states: list = [None] * len(group_keys)
            totals = []
            improvements = []
            for group, contributor, value in zip(groups, contributors, values):
                state = group_states[group]
                if state is None:
                    key = (rule_id, aggregate_id, group_keys[group])
                    state = states.get(key)
                    if state is None:
                        state = states[key] = _AggregateState(func)
                        folds.created.append(key)
                    group_states[group] = state
                contributor = contributor_keys[contributor]
                previous = state.contributions.get(contributor, _ADDED)
                before = state.total
                total, improved = state.update(contributor, value)
                if improved:
                    changes.append((state, contributor, previous, before))
                totals.append(total)
                improvements.append(improved)
            if result_kind == "float":
                if any(type(total) is not float for total in totals):
                    raise VectorRuntimeFallback("a non-float aggregate total")
                column = np.asarray(totals, dtype=np.float64)
            else:
                column = np.fromiter(
                    map(interner.intern, totals), dtype=np.int64, count=len(totals)
                )
            run = run.with_col(result_slot, column)
            if skippable:
                run = run.filter(np.asarray(improvements, dtype=bool))
            return run

        return fold


def _mask_filter(run: _Run, mask) -> _Run:
    """Filter by a mask that may be a scalar (constant-only comparison)."""
    if isinstance(mask, (bool, np.bool_)):
        return run if mask else _Run(0, run.cols)
    return run.filter(mask)


def _reduce(run: _Run, masks, keep: tuple[int, ...]) -> _Run:
    """A relation (or delta) ready to be joined: the rows passing
    ``masks``, projected onto the slots ``keep``, first occurrence of
    each distinct row only — in original order, with the number of rows
    it stands for as ``mult`` (None when nothing collapsed)."""
    for mask_fn in masks:
        run = _mask_filter(run, mask_fn(run))
    if run.n == 0:
        return run
    if keep:
        _, first, counts = np.unique(
            _pack_rows([("code", run.cols[slot]) for slot in keep]),
            return_index=True,
            return_counts=True,
        )
        order = np.argsort(first)
        first, counts = first[order], counts[order]
    else:  # every variable is dead: one row standing for them all
        first = np.zeros(1, dtype=np.int64)
        counts = np.full(1, run.n, dtype=np.int64)
    cols: list = [None] * len(run.cols)
    for slot in keep:
        cols[slot] = run.cols[slot][first]
    return _Run(len(first), cols, None if len(first) == run.n else counts)


class _Reduced:
    """A reduced relation as a join build side: block-shaped (``size``,
    ``column(position)``) over the kept positions, plus ``mult``."""

    __slots__ = ("size", "mult", "_columns", "_sorted")

    def __init__(self, run: _Run, kept):
        self.size = run.n
        self.mult = run.mult
        self._columns = {position: run.cols[slot] for slot, position in kept}
        self._sorted = None

    def column(self, position: int):
        return self._columns[position]

    def sorted_keys(self, positions: tuple[int, ...], interner):
        """(stable sort order, sorted packed keys) over class codes on
        the one probe signature its atom uses, computed on first need."""
        if self._sorted is None:
            columns = self._columns
            self._sorted = sort_keys(
                lambda p: interner.classes(columns[p]), positions
            )
        return self._sorted


#: :attr:`_Join.built` before the step's first slice of an execution
_UNBUILT = object()


class _Join:
    """A step joining the table to a build side, streamed.

    ``build()`` gives ``(relation, its row multiplicities or None)``, or
    None when the relation is empty; it runs once per execution, on the
    first slice that reaches the step, and its result is kept until
    :meth:`reset`.  ``expand(run, relation, mult)`` yields the joined
    table in slices of at most :data:`MORSEL` rows, in order.
    """

    __slots__ = ("build", "expand", "built")

    def __init__(self, build, expand):
        self.build = build
        self.expand = expand
        self.built = _UNBUILT

    def reset(self) -> None:
        self.built = _UNBUILT

    def __call__(self, run: _Run):
        built = self.built
        if built is _UNBUILT:
            built = self.built = self.build()
        if built is None:
            return ()
        return self.expand(run, *built)


def _apply_checks(run: _Run, block, rows, check_pairs, interner) -> _Run:
    """Intra-atom repeated-variable checks (NaN-corrected equality)."""
    if not check_pairs:
        return run
    mask = None
    for slot, position in check_pairs:
        keep = _equal_codes(interner, run.col(slot), block.column(position)[rows])
        mask = keep if mask is None else (mask & keep)
    return run.filter(mask)


# ----------------------------------------------------------------------
# vectorized head emission
# ----------------------------------------------------------------------

class _VecFinal:
    """Dedup + emit, as code columns, for rules that stay vectorized end
    to end.

    A head term is a slot, a constant, or a *computed* column (a Skolem
    term, arithmetic, a batch external, an existential's labelled null):
    computed columns are evaluated after the dedup, so each is minted
    once per distinct head, never per firing.  Float columns are
    interned; nothing is decoded.
    """

    __slots__ = ("dedup_slots", "kinds", "builders", "computed", "interner")

    def __init__(self, dedup_slots, kinds, builders, computed, interner):
        self.dedup_slots = dedup_slots
        self.kinds = kinds
        #: ((predicate, arity), head atoms' specs): a spec is ("slot",
        #: slot), ("term", index into computed) or ("code", code)
        self.builders = builders
        #: (kind, fn(run) -> column) per computed head term
        self.computed = computed
        self.interner = interner

    def emit(self, run: _Run) -> tuple[list, int]:
        """((predicate, arity, code columns, rows) per head relation,
        firings).  Head atoms of one relation interleave row by row, in
        head order, as the per-row paths derive them."""
        if run.n == 0:
            return [], 0
        # a firing is a binding of the body, not a table row
        firings = run.n if run.mult is None else int(run.mult.sum())
        rows = self._first_occurrences(run)
        count = len(rows)
        interner = self.interner
        columns: dict[tuple, Any] = {}
        for _, atoms in self.builders:
            for specs in atoms:
                for kind, payload in specs:
                    if kind == "slot" and (kind, payload) not in columns:
                        col = run.col(payload)[rows]
                        if self.kinds[payload] == "float":
                            col = interner.intern_floats(col)
                        columns[(kind, payload)] = col
        if self.computed:
            heads = run.gather(rows)
            for index, (kind, fn) in enumerate(self.computed):
                kind, col = _column(kind, fn, heads)
                if kind == "float":
                    if np.isnan(col).any():
                        # per row, a computed NaN is an object of its own
                        raise VectorRuntimeFallback("NaN in head values")
                    col = interner.intern_floats(col)
                columns[("term", index)] = col
        emitted = []
        for (predicate, arity), atoms in self.builders:
            built = [
                [
                    np.full(count, payload, dtype=np.int64) if kind == "code"
                    else columns[(kind, payload)]
                    for kind, payload in specs
                ]
                for specs in atoms
            ]
            if len(built) > 1:
                built = [[
                    np.stack([atom[position] for atom in built], axis=1).reshape(-1)
                    for position in range(arity)
                ]]
            emitted.append((predicate, arity, built[0], count * len(atoms)))
        return emitted, firings

    def _first_occurrences(self, run: _Run):
        """Indexes of the first row per distinct head-variable key, in
        original order.  Duplicate rows derive exactly the facts their
        first occurrence derives, which ``Database.add`` rejects — so
        dropping them preserves the delta and the insertion order."""
        if not self.dedup_slots:
            return np.zeros(1, dtype=np.int64)
        columns = [(self.kinds[slot], run.col(slot)) for slot in self.dedup_slots]
        for kind, col in columns:
            if kind == "float" and np.isnan(col).any():
                # the per-row path keeps NaN facts by object identity;
                # bitwise dedup would merge distinct NaN objects
                raise VectorRuntimeFallback("NaN in head values")
        _, first = np.unique(_pack_rows(columns), return_index=True)
        first.sort()
        return first


# ----------------------------------------------------------------------
# lowered rule object + entry point
# ----------------------------------------------------------------------

class VectorizedRule:
    """A planned rule lowered to batch steps (plus optional per-row tail)."""

    __slots__ = (
        "plan", "signature", "interner", "cut", "external", "reduced", "counts",
        "streamed", "coded", "_seed_entry", "_steps", "_joins", "_tail", "_final",
        "_folds",
    )

    def __init__(
        self, plan, signature, interner, seed_entry, steps, tail, final, cut,
        external, reduced, counts, folds,
    ):
        self.plan = plan
        self.signature = signature
        self.interner = interner
        #: plan step index where execution leaves the batch backend for
        #: the per-row tail (``len(plan.order)``: only the head is per
        #: row); None when the rule stays vectorized end to end
        self.cut = cut
        #: [rows seen, distinct tuples scored] by the rule's batch
        #: externals over all executions; None when it has none
        self.external = external
        #: [relation rows its reduced atoms stood for, rows they joined
        #: instead] over all executions; None when no atom is reduced
        self.reduced = reduced
        #: rows leaving each plan step summed over all executions (table
        #: rows in the batch prefix; the engine adds the bindings of the
        #: per-row tail); None unless the engine's tracer was enabled at
        #: lowering time
        self.counts = counts
        #: [tables streamed into the steps — one per seed slice and per
        #: join slice —, most rows one of them or a step's result held]
        #: over all executions
        self.streamed = [0, 0]
        #: does :meth:`execute` derive code batches (the head is
        #: vectorized) rather than bindings for a per-row tail?
        self.coded = final is not None
        self._seed_entry = seed_entry
        #: one entry per batch plan step; None for a comparison its
        #: atom's reduction already applied
        self._steps = steps
        self._joins = tuple(step for step in steps if isinstance(step, _Join))
        #: (variable name, slot, kind) of every column the per-row tail
        #: decodes into a binding; None without a tail
        self._tail = tail
        self._final = final
        #: undo log of the aggregate folds (None without an aggregate)
        self._folds = folds

    def execute(self, seed) -> tuple[Any, int]:
        """Run the batch pipeline over the seed's block rows [start,
        stop) (None: unseeded); returns (derived, firings): code batches
        and their firings when :attr:`coded`, else the surviving rows as
        bindings (name -> Python value, in enumeration order) and 0 —
        the engine's interpreter takes each from plan step :attr:`cut`
        on, and counts its firings.

        Raises :class:`VectorRuntimeFallback` when a safety check fails,
        with the engine's state as it was before the call: every slice
        runs through the batch steps before the tail or the head sees a
        row, and what the aggregate folds changed is rolled back.
        """
        if len(self.interner) >= MAX_CODES:
            raise VectorRuntimeFallback("interner exceeded code budget")
        if self._seed_entry is not None:
            run = self._seed_entry(seed)
        else:
            run = _Run(1, [])
        if run.n == 0:
            return [], 0
        survivors: list[_Run] = []
        folds = self._folds
        try:
            for piece in run.slices():
                self._drive(piece, 0, survivors)
            if not survivors:
                return [], 0
            if self._tail is not None:
                return self._bindings(survivors), 0
            return self._final.emit(_concat(survivors))
        except VectorRuntimeFallback:
            if folds is not None:
                folds.rollback()
            raise
        finally:
            for join in self._joins:
                join.reset()
            if folds is not None:
                folds.clear()

    def _bindings(self, runs: list):
        """The rows of ``runs``, in order, as bindings — decoded one
        morsel of Python values at a time."""
        interner = self.interner
        for run in runs:
            columns = [
                (name, _decode(interner, kind, run.col(slot)))
                for name, slot, kind in self._tail
            ]
            for i in range(run.n):
                yield {name: values[i] for name, values in columns}

    def _drive(self, run: _Run, number: int, survivors: list) -> None:
        """Run one table through plan steps ``number``..., depth first:
        a join hands each of its slices on to the next step before it
        makes the next slice.  Non-empty results of the last step are
        appended to ``survivors``, so they arrive in enumeration order."""
        steps = self._steps
        counts = self.counts
        self.streamed[0] += 1
        # every step but a join keeps or drops rows: none outgrows this
        self.streamed[1] = max(self.streamed[1], run.n)
        while number < len(steps) and run.n:
            step = steps[number]
            if isinstance(step, _Join):
                for piece in step(run):
                    if counts is not None:
                        counts[number] += piece.n
                    self._drive(piece, number + 1, survivors)
                return
            if step is not None:
                run = step(run)
            if counts is not None:
                counts[number] += run.n
            number += 1
        if run.n:
            survivors.append(run)


def compile_rule_vectorized(engine, rule, plan: JoinPlan) -> VectorizedRule:
    """Lower ``rule`` under ``plan`` to the batch backend.

    Steps the backend does not cover become a per-row tail the engine's
    interpreter runs; if that cut would arrive before the first
    join there is nothing to batch, and the whole rule falls back with
    :class:`VectorizationFallback`.  Relations are reduced before they
    are joined only when the rule stays columnar to the head: the tail
    runs once per row, so a row may not stand for several bindings.
    """
    if not plan.feasible:
        raise VectorizationFallback("plan fell back to textual order")
    if engine.provenance_enabled:
        raise VectorizationFallback("provenance requires per-row traces")

    # a fold reads every binding: a row may not stand for several
    reduce = not any(isinstance(literal, Aggregate) for literal in rule.body)
    vec, seed_entry, cut = _lower_body(engine, rule, plan, reduce=reduce)
    final = None
    if cut is None:
        final = _lower_final_vectorized(engine, rule, vec)
    if final is None and vec.reduced is not None:
        vec, seed_entry, cut = _lower_body(engine, rule, plan, reduce=False)

    if cut is not None and vec.joins_lowered == 0:
        # nothing batched before the per-row cut: the tail would just be
        # the interpreted rule plus decode overhead
        raise VectorizationFallback("no join reached before the cut")

    counts = [0] * len(plan.order) if engine.tracer.enabled else None
    tail = None
    if final is None:
        if cut is None:
            cut = len(plan.order)
        # only slots the vectorized prefix actually bound carry columns —
        # an aborted lowering may have allocated slots it never filled
        tail = tuple(
            (name, slot, vec.kinds[slot])
            for name, slot in vec.slots.items()
            if name in vec.bound
        )
    signature = (plan.order, tuple(step.probe_positions for step in plan.steps))
    return VectorizedRule(
        plan, signature, vec.interner, seed_entry, vec.steps, tail, final,
        cut, vec.external, vec.reduced, counts, vec.folds,
    )


def _lower_body(engine, rule, plan: JoinPlan, reduce: bool):
    """(lowering, seed entry, cut): the plan's steps lowered in order up
    to the first one the batch backend does not cover (``cut``; None
    when it covers them all)."""
    vec = _VecLowering(engine, rule, plan, reduce)
    literals = rule.body

    seed_entry = None
    if plan.seed_index is not None:
        seed_entry = vec.lower_seed(literals[plan.seed_index])

    for step_number, index in enumerate(plan.order):
        if step_number in vec.pushed:
            vec.steps.append(None)
            continue
        literal = literals[index]
        try:
            if isinstance(literal, Atom):
                step = vec.lower_atom(literal, step_number)
            elif isinstance(literal, Negation):
                step = vec.lower_negation(literal)
            elif isinstance(literal, Comparison):
                step = vec.lower_comparison(literal)
            elif isinstance(literal, Assignment):
                step = vec.lower_assignment(literal)
            elif isinstance(literal, Aggregate):
                step = vec.lower_aggregate(literal)
            else:
                raise VectorizationFallback(f"unsupported body literal {literal!r}")
        except VectorizationFallback:
            return vec, seed_entry, step_number
        vec.steps.append(step)
    return vec, seed_entry, None


def _lower_final_vectorized(engine, rule, vec: _VecLowering):
    """Head emission without per-row closures, or None when a head term
    needs them (a function without a batch form, an unbound variable).

    Rows are de-duplicated on every variable the head reads — the
    frontier too when the rule invents nulls, since a null is keyed by
    it (see ``Engine._head_plan``) — before any computed term is
    evaluated."""
    existential, frontier, rule_id = engine._head_plan(rule)
    kinds = vec.kinds
    interner = vec.interner
    computed: list[tuple[str, Callable]] = []
    dedup_slots: list[int] = []

    def slot_of(name: str) -> int | None:
        slot = vec.slots.get(name)
        if slot is None or name not in vec.bound:
            return None
        if slot not in dedup_slots:
            dedup_slots.append(slot)
        return slot

    if len({(atom.predicate, atom.arity) for atom in rule.head}) > len(
        {atom.predicate for atom in rule.head}
    ):
        return None  # one predicate at two arities: their order is per row
    nulls: dict[str, int] = {}
    if existential:
        frontier_slots = [slot_of(name) for name in frontier]
        if None in frontier_slots:
            return None
        for name in existential:
            label = f"null:{rule_id}:{name}"

            def mint(run: _Run, label=label):
                args = [(kinds[slot], run.col(slot)) for slot in frontier_slots]
                return _mint(
                    interner, run.n, args, lambda values: Null(skolem(label, values))
                )

            nulls[name] = len(computed)
            computed.append(("code", mint))
    builders: dict[tuple[str, int], list] = {}
    for atom in rule.head:
        specs = []
        for term in atom.terms:
            if isinstance(term, Variable) and term.name in nulls:
                specs.append(("term", nulls[term.name]))
            elif isinstance(term, Variable):
                slot = slot_of(term.name)
                if slot is None:
                    return None
                specs.append(("slot", slot))
            elif isinstance(term, Constant):
                specs.append(("code", interner.intern(term.value)))
            else:
                if any(slot_of(v.name) is None for v in variables_of(term)):
                    return None
                try:
                    computed.append(vec.lower_value(term))
                except VectorizationFallback:
                    return None
                specs.append(("term", len(computed) - 1))
        builders.setdefault((atom.predicate, atom.arity), []).append(tuple(specs))
    return _VecFinal(
        tuple(dedup_slots), kinds, tuple(builders.items()), tuple(computed), interner
    )
