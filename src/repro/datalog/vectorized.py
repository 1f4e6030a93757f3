"""Vectorized batch execution of planned rule bodies over code columns.

The compiled evaluators (:mod:`repro.datalog.compiled`) removed the
per-tuple interpretation overhead but still run one Python closure chain
per binding.  This module evaluates a planned rule whole-relation-at-a-
time instead: the binding set is a struct-of-arrays table (one int64
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
  rows in insertion order — exactly the compiled path's nested-loop
  order, so the derived fact sequence is identical;
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
  compiled and interpreted paths keep calling the scalar and remain
  the oracle;
* **everything else cuts to a per-row tail**: at the first plan step the
  batch backend does not cover (monotone aggregates, complex/Skolem
  terms, external functions registered without a batch form,
  existential heads), the surviving rows are decoded back to Python
  values and pushed through a closure chain built by the *compiled*
  lowering for the remaining steps.  The tail shares the engine's
  aggregate-state dicts, so aggregate totals fold in the identical
  order with identical float arithmetic — bit-identity needs no
  separate proof for the hard part.

Identity discipline
-------------------

Values are interned with Python ``==``/``hash`` semantics (so ``1`` and
``1.0`` share a code, exactly as the tuple-keyed dict indexes of the
compiled path collapse them), and every shortcut that could diverge from
Python scalar semantics is guarded:

* code equality is corrected for NaN (a NaN value equals nothing, not
  even itself, while its code does);
* ordering comparisons require every operand value to be *safely*
  numeric (floats, bools, ints within 2**53); otherwise the rule takes
  a :class:`VectorRuntimeFallback` and the engine permanently reverts it
  to the compiled path — which then either handles it (big ints) or
  raises the documented error (mixed-type ordering);
* arithmetic requires strictly-float operands so float64 kernels match
  Python float arithmetic bit for bit; division additionally checks for
  zero divisors (Python raises, numpy would emit inf);
* fallbacks are only ever raised while execution is still *pure* — the
  vectorized prefix mutates nothing but append-only caches — so the
  engine can re-run the rule on the compiled path without double
  counting.

Deduplicating head emission keeps the output small: rows are unique-d on
the head-variable columns (first occurrence wins, preserving order — a
dropped row's facts were exact duplicates the database would have
rejected anyway), so a rule with 140k firings but 500 distinct heads
decodes 500 tuples, not 140k.
"""

from __future__ import annotations

from typing import Any, Callable

from .atoms import Aggregate, Assignment, Atom, Comparison, Negation
from .columns import MAX_CODES, NUMPY_AVAILABLE
from .compiled import CompilationFallback, _Lowering
from .errors import EvaluationError
from .planner import JoinPlan
from .terms import Constant, Expr, FunctionTerm, Variable

if NUMPY_AVAILABLE:  # pragma: no branch
    import numpy as np

#: Hard cap on rows produced by a single join expansion; beyond it the
#: rule falls back to the compiled path rather than risk an allocation
#: hundreds of times larger than the final result.
MAX_EXPANSION = 1 << 25

#: Distinct argument tuples handed to a batch external per call.  The
#: batch form allocates a few arrays per feature it compares; chunking
#: keeps that transient memory fixed however many rows the join produced.
EXTERNAL_CHUNK = 1 << 16


class VectorizationFallback(Exception):
    """The rule cannot be lowered to the batch backend (structural)."""


class VectorRuntimeFallback(Exception):
    """A per-execute safety check failed; the engine must permanently
    revert this rule to the compiled path.  Only ever raised while the
    execution is still pure (no database/aggregate state touched)."""


class _Run:
    """The binding table: one column per slot, ``n`` rows."""

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: list):
        self.n = n
        self.cols = cols

    def col(self, slot: int):
        return self.cols[slot]

    def set_col(self, slot: int, values) -> None:
        cols = self.cols
        while len(cols) <= slot:
            cols.append(None)
        cols[slot] = values

    def gather(self, take) -> "_Run":
        """Rows at positions ``take`` (any numpy index), in that order."""
        cols = [None if c is None else c[take] for c in self.cols]
        return _Run(int(len(take)), cols)

    def filter(self, mask) -> "_Run":
        cols = [None if c is None else c[mask] for c in self.cols]
        return _Run(int(mask.sum()), cols)


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
    for kind, col in columns:
        if kind == "float":
            col = _dense(np.ascontiguousarray(col).view(np.int64))
        packed = col if packed is None else _pack_pair(_dense(packed), col)
    return packed


def _float_codes(interner, col):
    """Codes of a float64 column via the shared interner.

    Unique values are looked up through the interner dict, so Python
    equality decides the match (``2.0`` finds the code of an interned
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


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------

class _VecLowering:
    """Single-use context lowering one planned rule to vector steps."""

    def __init__(self, engine, rule, plan: JoinPlan):
        self.engine = engine
        self.rule = rule
        self.plan = plan
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

    def slot_for(self, name: str, kind: str) -> int:
        index = self.slots.get(name)
        if index is None:
            index = self.slots[name] = len(self.kinds)
            self.kinds.append(kind)
        return index

    # -- value producers ------------------------------------------------

    def lower_value(self, term):
        """Lower a term to ("code"|"float", fn(run) -> column) or
        ("const", value).  Raises VectorizationFallback on Skolem terms,
        function calls and anything else only the per-row paths cover."""
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
        raise VectorizationFallback(
            f"term {term} needs per-row evaluation"
        )

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
            for kind, payload in lowered:
                if kind == "const":
                    args.append(payload)
                    continue
                col = payload(run)
                if np.ndim(col) == 0:  # constant-only arithmetic
                    col = np.full(run.n, col, dtype=np.float64)
                args.append(col)
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
        Python float arithmetic of the compiled path exactly."""
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

    # -- seed -----------------------------------------------------------

    def lower_seed(self, atom: Atom):
        """Seed loader: delta tuples -> initial run, mirroring the
        compiled seed entry (arity filter, constant and repeat checks in
        plain Python on the raw tuples)."""
        bind_pairs: list[tuple[int, int]] = []
        const_checks: list[tuple[int, Any]] = []
        repeat_checks: list[tuple[int, int]] = []
        fresh: dict[str, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name in fresh:
                    repeat_checks.append((fresh[term.name], position))
                else:
                    slot = self.slot_for(term.name, "code")
                    fresh[term.name] = slot
                    bind_pairs.append((slot, position))
            elif isinstance(term, Constant):
                const_checks.append((position, term.value))
            else:
                raise VectorizationFallback(
                    f"seed atom {atom} has a complex term"
                )
        self.bound.update(fresh)
        arity = atom.arity
        interner = self.interner
        n_slots_at_seed = len(self.kinds)

        def entry(seed_facts) -> _Run:
            intern = interner.intern
            columns: list[list[int]] = [[] for _ in bind_pairs]
            rows = 0
            for values in seed_facts or ():
                if len(values) != arity:
                    continue
                ok = True
                for position, expected in const_checks:
                    if values[position] != expected:
                        ok = False
                        break
                if not ok:
                    continue
                for first, position in repeat_checks:
                    if values[first] != values[position]:
                        ok = False
                        break
                if not ok:
                    continue
                for j, (_, position) in enumerate(bind_pairs):
                    columns[j].append(intern(values[position]))
                rows += 1
            cols: list = [None] * n_slots_at_seed
            for j, (slot, _) in enumerate(bind_pairs):
                cols[slot] = np.asarray(columns[j], dtype=np.int64)
            return _Run(rows, cols)

        return entry

    # -- atoms ----------------------------------------------------------

    def lower_atom(self, atom: Atom):
        """One positive-atom step: membership, probe join, or scan."""
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
        self.joins_lowered += 1

        predicate = atom.predicate
        arity = atom.arity
        store = self.store
        interner = self.interner
        positions = tuple(probe_positions)
        membership = len(positions) == arity and not bind_pairs and not check_pairs
        kinds = self.kinds

        def probe_columns(run):
            """(list of int64 code columns, valid mask or None)."""
            columns = []
            valid = None
            for kind, payload in probe_specs:
                if kind == "slot":
                    col = run.col(payload)
                    if kinds[payload] == "float":
                        col = _float_codes(interner, col)
                else:
                    code = interner.lookup(payload)
                    col = np.full(run.n, code, dtype=np.int64)
                miss = col == -1
                if miss.any():
                    valid = miss if valid is None else (valid | miss)
                    col = np.where(miss, 0, col)
                columns.append(col)
            return columns, (None if valid is None else ~valid)

        def counts_for(run):
            """Per-row match counts + (order, left) into the build side."""
            block = store.block(predicate, arity)
            if block is None or block.size == 0:
                return None
            if not positions:  # zero-arity atom: the unit key matches all
                counts = np.full(run.n, block.size, dtype=np.int64)
                return counts, np.arange(block.size), np.zeros(run.n, dtype=np.int64)
            columns, valid = probe_columns(run)
            if len(positions) <= 2:
                built = store.sorted_keys(predicate, arity, positions)
                order, sorted_keys = built
                if len(columns) == 1:
                    probe = columns[0]
                else:
                    probe = _pack_pair(columns[0], columns[1])
            else:
                build_cols = [block.column(p) for p in positions]
                build_packed = build_cols[0]
                probe = columns[0]
                for j in range(1, len(positions)):
                    merged = np.concatenate([build_packed, probe])
                    dense = _dense(merged)
                    build_packed = _pack_pair(
                        dense[: len(build_packed)], build_cols[j]
                    )
                    probe = _pack_pair(dense[len(build_cols[0]) :], columns[j])
                order = np.argsort(build_packed, kind="stable")
                sorted_keys = build_packed[order]
            left = np.searchsorted(sorted_keys, probe, side="left")
            right = np.searchsorted(sorted_keys, probe, side="right")
            counts = right - left
            if valid is not None:
                counts[~valid] = 0
            return counts, order, left

        if membership:
            def membership_step(run: _Run) -> _Run:
                found = counts_for(run)
                if found is None:
                    return _Run(0, run.cols)
                counts, _, _ = found
                return run.filter(counts > 0)

            return membership_step

        if positions:
            def probe_step(run: _Run) -> _Run:
                found = counts_for(run)
                if found is None:
                    return _Run(0, run.cols)
                counts, order, left = found
                total = int(counts.sum())
                if total == 0:
                    return _Run(0, run.cols)
                if total > MAX_EXPANSION:
                    raise VectorRuntimeFallback("join expansion too large")
                probe_rep = np.repeat(np.arange(run.n), counts)
                offsets = np.cumsum(counts) - counts
                within = np.arange(total) - np.repeat(offsets, counts)
                rows = order[np.repeat(left, counts) + within]
                out = run.gather(probe_rep)
                block = store.block(predicate, arity)
                for slot, position in bind_pairs:
                    out.set_col(slot, block.column(position)[rows])
                return _apply_checks(out, block, rows, check_pairs, interner)

            return probe_step

        def scan_step(run: _Run) -> _Run:
            block = store.block(predicate, arity)
            size = 0 if block is None else block.size
            if size == 0 or run.n == 0:
                return _Run(0, run.cols)
            total = run.n * size
            if total > MAX_EXPANSION:
                raise VectorRuntimeFallback("scan expansion too large")
            probe_rep = np.repeat(np.arange(run.n), size)
            rows = np.tile(np.arange(size), run.n)
            out = run.gather(probe_rep)
            for slot, position in bind_pairs:
                out.set_col(slot, block.column(position)[rows])
            return _apply_checks(out, block, rows, check_pairs, interner)

        return scan_step

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
            block = store.block(predicate, arity)
            if block is None or block.size == 0:
                return run
            if not positions:  # zero-arity: the relation holds, drop all
                return _Run(0, run.cols)
            columns = []
            valid = None
            for kind, payload in probe_specs:
                if kind == "slot":
                    col = run.col(payload)
                    if kinds[payload] == "float":
                        col = _float_codes(interner, col)
                else:
                    code = interner.lookup(payload)
                    col = np.full(run.n, code, dtype=np.int64)
                miss = col == -1
                if miss.any():
                    valid = miss if valid is None else (valid | miss)
                    col = np.where(miss, 0, col)
                columns.append(col)
            if len(positions) <= 2:
                order, sorted_keys = store.sorted_keys(predicate, arity, positions)
                probe = columns[0] if len(columns) == 1 else _pack_pair(
                    columns[0], columns[1]
                )
            else:
                build_cols = [block.column(p) for p in positions]
                build_packed = build_cols[0]
                probe = columns[0]
                for j in range(1, arity):
                    merged = np.concatenate([build_packed, probe])
                    dense = _dense(merged)
                    build_packed = _pack_pair(
                        dense[: len(build_packed)], build_cols[j]
                    )
                    probe = _pack_pair(dense[len(build_cols[0]) :], columns[j])
                sorted_keys = np.sort(build_packed)
            left = np.searchsorted(sorted_keys, probe, side="left")
            right = np.searchsorted(sorted_keys, probe, side="right")
            found = right > left
            if valid is not None:
                found &= valid  # a missed lookup can match no fact
            return run.filter(~found)

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
                    a = lfn(run)
                    b = rfn(run)
                    _, _, _, is_nan = interner.tables()
                    if op == "==":
                        return (a == b) & ~is_nan[a]
                    return (a != b) | is_nan[a]

                return code_equality
            if "code" in (lhs[0], rhs[0]) and "const" in (lhs[0], rhs[0]):
                code_fn = lhs[1] if lhs[0] == "code" else rhs[1]
                value = lhs[1] if lhs[0] == "const" else rhs[1]

                def const_equality(run):
                    codes = code_fn(run)
                    target = interner.lookup(value)
                    _, _, _, is_nan = interner.tables()
                    if target == -1 or (isinstance(value, float) and value != value):
                        hit = np.zeros(run.n, dtype=bool)
                    else:
                        hit = (codes == target) & ~is_nan[codes]
                    return hit if op == "==" else ~hit

                return const_equality
            # a computed float is involved: equality through float images
            return self._numeric_mask(op, lhs, rhs, equality=True)
        return self._numeric_mask(op, lhs, rhs, equality=False)

    def _numeric_mask(self, op: str, lhs, rhs, equality: bool):
        """Comparison via float images.  For ordering, *every* operand
        value must be safely numeric (compiled raises on mixed-type
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
                out = _Run(run.n, list(run.cols))
                out.set_col(slot, np.full(run.n, code, dtype=np.int64))
                return out

            return bind_const
        slot = self.slot_for(name, kind)
        self.bound.add(name)

        def bind_value(run: _Run, fn=payload) -> _Run:
            out = _Run(run.n, list(run.cols))
            out.set_col(slot, fn(run))
            return out

        return bind_value


def _mask_filter(run: _Run, mask) -> _Run:
    """Filter by a mask that may be a scalar (constant-only comparison)."""
    if isinstance(mask, (bool, np.bool_)):
        return run if mask else _Run(0, run.cols)
    return run.filter(mask)


def _apply_checks(run: _Run, block, rows, check_pairs, interner) -> _Run:
    """Intra-atom repeated-variable checks (NaN-corrected equality)."""
    if not check_pairs:
        return run
    mask = None
    _, _, _, is_nan = interner.tables()
    for slot, position in check_pairs:
        a = run.col(slot)
        b = block.column(position)[rows]
        keep = (a == b) & ~is_nan[a]
        mask = keep if mask is None else (mask & keep)
    return run.filter(mask)


# ----------------------------------------------------------------------
# the compiled-per-row tail
# ----------------------------------------------------------------------

class _Tail:
    """Per-row continuation for plan steps the batch backend skips.

    Built from the *compiled* lowering (same closures, same shared
    aggregate state, same head instantiation), so everything from the
    cut onward behaves bit-identically to ``Engine(vectorize=False)``.
    """

    __slots__ = ("entry", "regs", "sink", "firings", "decoders")

    def __init__(self, entry, regs, sink, firings, decoders):
        self.entry = entry
        self.regs = regs
        self.sink = sink
        self.firings = firings
        self.decoders = decoders

    def run(self, run: _Run, interner) -> tuple[list, int]:
        sink = self.sink
        sink.clear()
        self.firings[0] = 0
        regs = self.regs
        entry = self.entry
        columns = []
        values = interner.values
        for slot, kind in self.decoders:
            col = run.col(slot)
            if kind == "code":
                columns.append((slot, [values[c] for c in col.tolist()]))
            else:
                columns.append((slot, col.tolist()))
        for i in range(run.n):
            for slot, decoded in columns:
                regs[slot] = decoded[i]
            entry(regs)
        return sink, self.firings[0]


def _build_tail(engine, rule, plan, vec: _VecLowering, cut: int):
    """Lower plan steps [cut:] plus the head through the compiled path."""
    lowering = _Lowering(engine, rule, plan, counting=False)
    lowering.slots = dict(vec.slots)
    lowering.bound = set(vec.bound)
    literals = rule.body
    makers = []
    try:
        for index in plan.order[cut:]:
            literal = literals[index]
            if isinstance(literal, Atom):
                maker = lowering.lower_atom(literal)
            elif isinstance(literal, Negation):
                maker = lowering.lower_negation(literal)
            elif isinstance(literal, Comparison):
                maker = lowering.lower_comparison(literal)
            elif isinstance(literal, Assignment):
                maker = lowering.lower_assignment(literal)
            elif isinstance(literal, Aggregate):
                maker = lowering.lower_aggregate(literal)
            else:
                raise VectorizationFallback(
                    f"unsupported body literal {literal!r}"
                )
            makers.append(maker)
        step = lowering.lower_final()
    except CompilationFallback as fallback:
        raise VectorizationFallback(str(fallback)) from None
    for maker in reversed(makers):
        step = maker(step)
    regs = [None] * len(lowering.slots)
    # only slots the vectorized prefix actually bound carry columns — an
    # aborted lowering may have allocated slots it never filled
    decoders = tuple(
        (slot, vec.kinds[slot])
        for name, slot in vec.slots.items()
        if name in vec.bound
    )
    return _Tail(step, regs, lowering.sink, lowering.firings, decoders)


# ----------------------------------------------------------------------
# vectorized head emission
# ----------------------------------------------------------------------

class _VecFinal:
    """Dedup + decode + emit for rules that stay vectorized end to end."""

    __slots__ = ("dedup_slots", "kinds", "builders", "interner")

    def __init__(self, dedup_slots, kinds, builders, interner):
        self.dedup_slots = dedup_slots
        self.kinds = kinds
        self.builders = builders
        self.interner = interner

    def emit(self, run: _Run) -> tuple[list, int]:
        firings = run.n
        if firings == 0:
            return [], 0
        rows = self._first_occurrences(run)
        decoded: dict[int, list] = {}
        values = self.interner.values
        for slot in {s for _, specs in self.builders
                     for kind, s in specs if kind == "slot"}:
            col = run.col(slot)[rows]
            if self.kinds[slot] == "code":
                decoded[slot] = [values[c] for c in col.tolist()]
            else:
                decoded[slot] = col.tolist()
        facts = []
        append = facts.append
        for i in range(len(rows)):
            for predicate, specs in self.builders:
                append(
                    (
                        predicate,
                        tuple(
                            decoded[payload][i] if kind == "slot" else payload
                            for kind, payload in specs
                        ),
                    )
                )
        return facts, firings

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
                # compiled dedups NaN facts by object identity;
                # bitwise dedup would merge distinct NaN objects
                raise VectorRuntimeFallback("NaN in head values")
        _, first = np.unique(_pack_rows(columns), return_index=True)
        first.sort()
        return first


# ----------------------------------------------------------------------
# compiled rule object + entry point
# ----------------------------------------------------------------------

class VectorizedRule:
    """A planned rule lowered to batch steps (plus optional per-row tail)."""

    __slots__ = (
        "plan", "signature", "interner", "cut", "external", "_seed_entry",
        "_steps", "_tail", "_final",
    )

    def __init__(
        self, plan, signature, interner, seed_entry, steps, tail, final, cut, external
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
        self._seed_entry = seed_entry
        self._steps = steps
        self._tail = tail
        self._final = final

    def execute(self, seed_facts) -> tuple[list, int]:
        """Run the batch pipeline; returns (derived facts, firings).

        The returned list is reused across calls when the rule has a
        per-row tail — the caller must consume it before the next
        ``execute`` (same contract as the compiled path).  Raises
        :class:`VectorRuntimeFallback` — always before any engine state
        has been touched — when a safety check fails.
        """
        if len(self.interner) >= MAX_CODES:
            raise VectorRuntimeFallback("interner exceeded code budget")
        if self._seed_entry is not None:
            run = self._seed_entry(seed_facts)
        else:
            run = _Run(1, [])
        for step in self._steps:
            if run.n == 0:
                return [], 0
            run = step(run)
        if run.n == 0:
            return [], 0
        if self._tail is not None:
            return self._tail.run(run, self.interner)
        return self._final.emit(run)


def compile_rule_vectorized(engine, rule, plan: JoinPlan) -> VectorizedRule:
    """Lower ``rule`` under ``plan`` to the batch backend.

    Steps the backend does not cover become a per-row tail built from
    the compiled lowering; if that cut would arrive before the first
    join there is nothing to batch, and the whole rule falls back with
    :class:`VectorizationFallback`.
    """
    if not NUMPY_AVAILABLE:
        raise VectorizationFallback("numpy unavailable")
    if not plan.feasible:
        raise VectorizationFallback("plan fell back to textual order")
    if engine.provenance_enabled:
        raise VectorizationFallback("provenance requires per-row traces")
    vec = _VecLowering(engine, rule, plan)
    literals = rule.body

    seed_entry = None
    if plan.seed_index is not None:
        seed_entry = vec.lower_seed(literals[plan.seed_index])

    cut: int | None = None
    for step_number, index in enumerate(plan.order):
        literal = literals[index]
        try:
            if isinstance(literal, Atom):
                step = vec.lower_atom(literal)
            elif isinstance(literal, Negation):
                step = vec.lower_negation(literal)
            elif isinstance(literal, Comparison):
                step = vec.lower_comparison(literal)
            elif isinstance(literal, Assignment):
                step = vec.lower_assignment(literal)
            else:  # Aggregate and anything unexpected: per-row territory
                raise VectorizationFallback("aggregate folds per row")
        except VectorizationFallback:
            cut = step_number
            break
        vec.steps.append(step)

    if cut is not None and vec.joins_lowered == 0:
        # nothing batched before the per-row cut: the tail would just be
        # the compiled rule plus decode overhead
        raise VectorizationFallback("no join reached before the cut")

    tail = None
    final = None
    if cut is not None:
        tail = _build_tail(engine, rule, plan, vec, cut)
    else:
        final = _lower_final_vectorized(engine, rule, vec)
        if final is None:
            cut = len(plan.order)
            tail = _build_tail(engine, rule, plan, vec, cut)
    signature = (plan.order, tuple(step.probe_positions for step in plan.steps))
    return VectorizedRule(
        plan, signature, vec.interner, seed_entry, vec.steps, tail, final,
        cut, vec.external,
    )


def _lower_final_vectorized(engine, rule, vec: _VecLowering):
    """Head emission without per-row closures, or None when the head
    needs them (existentials, complex terms, unbound variables)."""
    existential, _, _ = engine._head_plan(rule)
    if existential:
        return None
    builders = []
    dedup_slots: list[int] = []
    seen: set[int] = set()
    for atom in rule.head:
        specs = []
        for term in atom.terms:
            if isinstance(term, Variable):
                slot = vec.slots.get(term.name)
                if slot is None:
                    return None
                specs.append(("slot", slot))
                if slot not in seen:
                    seen.add(slot)
                    dedup_slots.append(slot)
            elif isinstance(term, Constant):
                specs.append(("const", term.value))
            else:
                return None
        builders.append((atom.predicate, tuple(specs)))
    return _VecFinal(tuple(dedup_slots), vec.kinds, tuple(builders), vec.interner)
