"""Compiled rule evaluators: planned rule bodies lowered to closure chains.

The interpreted join (:meth:`Engine._match_from`) pays, per tuple, an
``isinstance`` dispatch on the literal, a rebuild of the positional
pattern dict, a dict-copy per binding extension and a recursive generator
resume.  This module removes all four: a rule + plan is lowered *once*
into a chain of closures over a flat register file —

* variables become integer **slots** in a single mutable register list
  (which slots an atom binds, checks or probes is known statically from
  the planned order, so there is no per-tuple "is this variable bound?"
  question left);
* each atom step captures the **live index dict** (or row list) of its
  predicate at compile time — facts are append-only, and
  :class:`~repro.datalog.database.Database` extends those objects in
  place, never replaces them, across semi-naive rounds — and probes it
  with a precompiled key builder;
* negations become set-membership tests, comparisons/assignments become
  precompiled expression closures, aggregates call into the engine's
  shared monotone accumulator state;
* the head is emitted by precompiled tuple builders (labelled nulls for
  existentials included) appending straight to a reusable output list.

Compilation is best-effort: anything the lowering cannot prove safe
(an infeasible plan, complex terms over never-bound variables) raises
:class:`CompilationFallback` and the engine keeps the interpreted path
for that rule, with identical semantics.
"""

from __future__ import annotations

from typing import Any, Callable

from .atoms import Aggregate, Assignment, Atom, Comparison, Negation
from .builtins import _ARITHMETIC, _COMPARATORS, compare
from .errors import EvaluationError
from .planner import JoinPlan
from .terms import Constant, Expr, FunctionTerm, Null, SkolemTerm, Variable, skolem

ValueFn = Callable[[list], Any]
StepFn = Callable[[list], None]


class CompilationFallback(Exception):
    """The rule cannot be lowered; the engine must interpret it."""


class CompiledRule:
    """A rule body lowered to a closure chain over a register file."""

    __slots__ = ("plan", "counts", "_entry", "_seed_entry", "_regs", "_sink",
                 "_firings")

    def __init__(
        self,
        plan: JoinPlan,
        entry: StepFn | None,
        seed_entry: Callable[[tuple], None] | None,
        regs: list,
        sink: list,
        firings: list,
        counts: list | None,
    ):
        self.plan = plan
        self.counts = counts
        self._entry = entry
        self._seed_entry = seed_entry
        self._regs = regs
        self._sink = sink
        self._firings = firings

    def execute(self, seed_facts: list[tuple] | None) -> tuple[list, int]:
        """Run the chain; returns (derived facts, firings).

        The returned fact list is reused across calls — the caller must
        consume it before the next ``execute``.
        """
        sink = self._sink
        sink.clear()
        self._firings[0] = 0
        if self._seed_entry is not None:
            seed_entry = self._seed_entry
            for values in seed_facts or ():
                seed_entry(values)
        else:
            self._entry(self._regs)
        return sink, self._firings[0]


# ----------------------------------------------------------------------
# term lowering
# ----------------------------------------------------------------------

def _compile_term(term, slots: dict[str, int], functions) -> ValueFn:
    """Lower a term to a closure over the register file.

    Raises KeyError when the term reads a variable with no slot (i.e.
    one that is unbound at this point of the plan) — callers turn that
    into deferral or :class:`CompilationFallback`.
    """
    if isinstance(term, Constant):
        value = term.value
        return lambda regs: value
    if isinstance(term, Variable):
        index = slots[term.name]
        return lambda regs: regs[index]
    if isinstance(term, Expr):
        if term.op == "neg":
            inner = _compile_term(term.args[0], slots, functions)
            return lambda regs: -inner(regs)
        lhs = _compile_term(term.args[0], slots, functions)
        rhs = _compile_term(term.args[1], slots, functions)
        op_fn = _ARITHMETIC[term.op]
        rendered = str(term)

        def arith(regs):
            try:
                return op_fn(lhs(regs), rhs(regs))
            except ZeroDivisionError:
                raise EvaluationError(f"division by zero in {rendered}") from None
            except TypeError as exc:
                raise EvaluationError(f"type error in {rendered}: {exc}") from None

        return arith
    if isinstance(term, SkolemTerm):
        arg_fns = tuple(_compile_term(arg, slots, functions) for arg in term.args)
        name = term.name
        return lambda regs: skolem(name, tuple(fn(regs) for fn in arg_fns))
    if isinstance(term, FunctionTerm):
        arg_fns = tuple(_compile_term(arg, slots, functions) for arg in term.args)
        name = term.name

        def call(regs):
            return functions.get(name)(*[fn(regs) for fn in arg_fns])

        return call
    raise CompilationFallback(f"cannot lower term of type {type(term).__name__}")


def _tuple_fn(fns: tuple[ValueFn, ...]) -> ValueFn:
    """A closure building a value tuple (specialised for small arities)."""
    if not fns:
        return lambda regs: ()
    if len(fns) == 1:
        f0, = fns
        return lambda regs: (f0(regs),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda regs: (f0(regs), f1(regs))
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda regs: (f0(regs), f1(regs), f2(regs))
    if len(fns) == 4:
        f0, f1, f2, f3 = fns
        return lambda regs: (f0(regs), f1(regs), f2(regs), f3(regs))
    return lambda regs: tuple(fn(regs) for fn in fns)


# ----------------------------------------------------------------------
# step lowering
# ----------------------------------------------------------------------

def _counted(next_step: StepFn, counts: list, index: int) -> StepFn:
    def step(regs):
        counts[index] += 1
        next_step(regs)

    return step


def _make_atom_step(
    next_step: StepFn,
    arity: int,
    key_fn: ValueFn | None,
    index: dict | None,
    rows: list | None,
    fact_set: set | None,
    bind_pairs: tuple[tuple[int, int], ...],
    check_pairs: tuple[tuple[int, int], ...],
) -> StepFn:
    """One positive-atom join step.

    Exactly one source is set: ``fact_set`` (fully bound — existence
    probe), ``index`` (partial probe via the captured live index) or
    ``rows`` (no bound position — scan of the captured live row list).
    """
    if fact_set is not None:
        def membership(regs):
            if key_fn(regs) in fact_set:
                next_step(regs)

        return membership

    if index is not None:
        index_get = index.get
        if not check_pairs and len(bind_pairs) == 1:
            (s0, p0), = bind_pairs

            def probe1(regs):
                bucket = index_get(key_fn(regs))
                if bucket:
                    for values in bucket:
                        if len(values) == arity:
                            regs[s0] = values[p0]
                            next_step(regs)

            return probe1
        if not check_pairs and len(bind_pairs) == 2:
            (s0, p0), (s1, p1) = bind_pairs

            def probe2(regs):
                bucket = index_get(key_fn(regs))
                if bucket:
                    for values in bucket:
                        if len(values) == arity:
                            regs[s0] = values[p0]
                            regs[s1] = values[p1]
                            next_step(regs)

            return probe2

        def probe(regs):
            bucket = index_get(key_fn(regs))
            if bucket:
                for values in bucket:
                    if len(values) != arity:
                        continue
                    for slot, position in bind_pairs:
                        regs[slot] = values[position]
                    for slot, position in check_pairs:
                        if regs[slot] != values[position]:
                            break
                    else:
                        next_step(regs)

        return probe

    def scan(regs):
        for values in rows:
            if len(values) != arity:
                continue
            for slot, position in bind_pairs:
                regs[slot] = values[position]
            for slot, position in check_pairs:
                if regs[slot] != values[position]:
                    break
            else:
                next_step(regs)

    return scan


def _make_comparison_step(next_step: StepFn, op: str, lhs: ValueFn, rhs: ValueFn) -> StepFn:
    comparator = _COMPARATORS[op]

    def step(regs):
        left = lhs(regs)
        right = rhs(regs)
        try:
            satisfied = comparator(left, right)
        except TypeError:
            # exact legacy semantics for nulls / mixed-type operands
            satisfied = compare(op, left, right)
        if satisfied:
            next_step(regs)

    return step


class _Lowering:
    """Single-use context threading slots/bound-set through one rule."""

    def __init__(self, engine, rule, plan: JoinPlan, counting: bool):
        self.engine = engine
        self.rule = rule
        self.plan = plan
        self.slots: dict[str, int] = {}
        self.bound: set[str] = set()
        self.sink: list = []
        self.firings = [0]
        self.counting = counting
        self.counts: list | None = [0] * len(plan.steps) if counting else None
        # deferred seed complex checks: (term, stash slot), compiled last
        self.deferred: list[tuple[Any, int]] = []

    def slot_for(self, name: str) -> int:
        index = self.slots.get(name)
        if index is None:
            index = self.slots[name] = len(self.slots)
        return index

    # -- literal makers (forward pass; each returns maker(next) -> step) --

    def lower_atom(self, atom: Atom):
        engine = self.engine
        probe_fns: list[ValueFn] = []
        probe_positions: list[int] = []
        bind_pairs: list[tuple[int, int]] = []
        check_pairs: list[tuple[int, int]] = []
        fresh: dict[str, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name in self.bound:
                    slot = self.slot_for(term.name)
                    probe_positions.append(position)
                    probe_fns.append(lambda regs, i=slot: regs[i])
                elif term.name in fresh:
                    check_pairs.append((fresh[term.name], position))
                else:
                    slot = self.slot_for(term.name)
                    fresh[term.name] = slot
                    bind_pairs.append((slot, position))
            elif isinstance(term, Constant):
                probe_positions.append(position)
                probe_fns.append(lambda regs, v=term.value: v)
            else:
                try:
                    fn = _compile_term(term, self.slots, engine.functions)
                except KeyError:
                    raise CompilationFallback(
                        f"atom {atom} has a complex term over unbound variables"
                    ) from None
                probe_positions.append(position)
                probe_fns.append(fn)
        self.bound.update(fresh)

        arity = atom.arity
        key_fn = _tuple_fn(tuple(probe_fns))
        if len(probe_positions) == arity and not bind_pairs and not check_pairs:
            fact_set = engine.database.live_set(atom.predicate)
            index = rows = None
        elif probe_positions:
            fact_set = rows = None
            index = engine.database.index_for(atom.predicate, tuple(probe_positions))
        else:
            fact_set = index = None
            rows = engine.database.live_rows(atom.predicate)
        bind = tuple(bind_pairs)
        check = tuple(check_pairs)
        return lambda next_step: _make_atom_step(
            next_step, arity, key_fn, index, rows, fact_set, bind, check
        )

    def lower_negation(self, negation: Negation):
        atom = negation.atom
        fns = []
        for term in atom.terms:
            try:
                fns.append(_compile_term(term, self.slots, self.engine.functions))
            except KeyError:
                raise CompilationFallback(
                    f"negated atom {atom} reads an unbound variable"
                ) from None
        key_fn = _tuple_fn(tuple(fns)) if fns else (lambda regs: ())
        fact_set = self.engine.database.live_set(atom.predicate)

        def maker(next_step):
            def step(regs):
                if key_fn(regs) not in fact_set:
                    next_step(regs)

            return step

        return maker

    def lower_comparison(self, comparison: Comparison):
        try:
            lhs = _compile_term(comparison.lhs, self.slots, self.engine.functions)
            rhs = _compile_term(comparison.rhs, self.slots, self.engine.functions)
        except KeyError:
            raise CompilationFallback(
                f"comparison {comparison} reads an unbound variable"
            ) from None
        op = comparison.op
        return lambda next_step: _make_comparison_step(next_step, op, lhs, rhs)

    def lower_assignment(self, assignment: Assignment):
        try:
            expr = _compile_term(assignment.expression, self.slots, self.engine.functions)
        except KeyError:
            raise CompilationFallback(
                f"assignment {assignment} reads an unbound variable"
            ) from None
        name = assignment.variable.name
        if name in self.bound:
            slot = self.slots[name]

            def check_maker(next_step):
                def step(regs):
                    if regs[slot] == expr(regs):
                        next_step(regs)

                return step

            return check_maker
        slot = self.slot_for(name)
        self.bound.add(name)

        def bind_maker(next_step):
            def step(regs):
                regs[slot] = expr(regs)
                next_step(regs)

            return step

        return bind_maker

    def lower_aggregate(self, aggregate: Aggregate):
        engine = self.engine
        rule = self.rule
        try:
            value_fn = _compile_term(aggregate.expression, self.slots, engine.functions)
            group_slots = tuple(
                self.slots[name] for name in engine._aggregate_group_vars(rule, aggregate)
            )
            if aggregate.contributors:
                contrib_fn = _tuple_fn(
                    tuple(
                        (lambda regs, i=self.slots[v.name]: regs[i])
                        for v in aggregate.contributors
                    )
                )
            else:
                # legacy contributor identity: the full binding, as sorted
                # (name, value) pairs — the bound set here is statically known
                pairs = tuple(
                    (name, self.slots[name]) for name in sorted(self.bound)
                )
                contrib_fn = lambda regs: tuple(  # noqa: E731
                    (name, regs[i]) for name, i in pairs
                )
        except KeyError:
            raise CompilationFallback(
                f"aggregate {aggregate} reads an unbound variable"
            ) from None
        if group_slots:
            group_key_fn = _tuple_fn(
                tuple((lambda regs, i=slot: regs[i]) for slot in group_slots)
            )
        else:
            group_key_fn = lambda regs: ()  # noqa: E731
        skippable = engine._aggregate_skippable(rule, aggregate)
        result_slot = self.slot_for(aggregate.variable.name)
        self.bound.add(aggregate.variable.name)
        states = engine._aggregate_states
        rule_id, aggregate_id = id(rule), id(aggregate)
        func = aggregate.func

        def maker(next_step):
            from .engine import _AggregateState

            def step(regs):
                key = (rule_id, aggregate_id, group_key_fn(regs))
                state = states.get(key)
                if state is None:
                    state = _AggregateState(func)
                    states[key] = state
                total, improved = state.update(contrib_fn(regs), value_fn(regs))
                if improved or not skippable:
                    regs[result_slot] = total
                    next_step(regs)

            return step

        return maker

    # -- seed entry -----------------------------------------------------

    def lower_seed(self, atom: Atom):
        """Classify the seed atom; returns a factory(first_step) -> entry.

        Seed facts arrive as raw delta tuples (no index pattern), so
        constants and intra-atom repeats are checked here; complex terms
        evaluable from the seed's own variables are checked immediately,
        the rest stash the observed value for the final step.
        """
        bind_pairs: list[tuple[int, int]] = []
        const_checks: list[tuple[int, Any]] = []
        repeat_checks: list[tuple[int, int]] = []
        complex_positions: list[tuple[Any, int]] = []
        fresh: dict[str, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                if term.name in fresh:
                    repeat_checks.append((fresh[term.name], position))
                else:
                    slot = self.slot_for(term.name)
                    fresh[term.name] = slot
                    bind_pairs.append((slot, position))
            elif isinstance(term, Constant):
                const_checks.append((position, term.value))
            else:
                complex_positions.append((term, position))
        self.bound.update(fresh)

        immediate: list[tuple[ValueFn, int]] = []
        for term, position in complex_positions:
            try:
                fn = _compile_term(term, self.slots, self.engine.functions)
            except KeyError:
                stash = self.slot_for(f"\x00defer:{position}")
                bind_pairs.append((stash, position))
                self.deferred.append((term, stash))
            else:
                immediate.append((fn, position))

        arity = atom.arity
        binds = tuple(bind_pairs)
        consts = tuple(const_checks)
        repeats = tuple(repeat_checks)
        checks = tuple(immediate)

        def factory(first_step, regs):
            def entry(values):
                if len(values) != arity:
                    return
                for position, expected in consts:
                    if values[position] != expected:
                        return
                for slot, position in binds:
                    regs[slot] = values[position]
                for slot, position in repeats:
                    if regs[slot] != values[position]:
                        return
                for fn, position in checks:
                    if fn(regs) != values[position]:
                        return
                first_step(regs)

            return entry

        return factory

    # -- final step -----------------------------------------------------

    def lower_final(self) -> StepFn:
        engine = self.engine
        rule = self.rule
        existential, frontier, rule_id = engine._head_plan(rule)
        try:
            frontier_slots = tuple(self.slots[name] for name in frontier)
        except KeyError:
            raise CompilationFallback(
                "frontier variable unbound (unsafe head)"
            ) from None
        null_specs = tuple(
            (f"null:{rule_id}:{name}", self.slot_for(name)) for name in existential
        )
        deferred_checks = []
        for term, stash in self.deferred:
            try:
                fn = _compile_term(term, self.slots, engine.functions)
            except KeyError:
                raise CompilationFallback(
                    f"seed atom complex term {term} has unbound variables"
                ) from None
            deferred_checks.append((fn, stash))
        deferred_checks = tuple(deferred_checks)
        head_builders = []
        for atom in rule.head:
            try:
                fns = tuple(
                    _compile_term(term, self.slots, engine.functions)
                    for term in atom.terms
                )
            except KeyError:
                raise CompilationFallback(
                    f"head atom {atom} reads an unbound variable"
                ) from None
            head_builders.append((atom.predicate, _tuple_fn(fns)))
        head_builders = tuple(head_builders)
        sink_append = self.sink.append
        firings = self.firings

        def final(regs):
            for fn, stash in deferred_checks:
                if fn(regs) != regs[stash]:
                    return
            firings[0] += 1
            if null_specs:
                frontier_values = tuple(regs[i] for i in frontier_slots)
                for label, slot in null_specs:
                    regs[slot] = Null(skolem(label, frontier_values))
            for predicate, build in head_builders:
                sink_append((predicate, build(regs)))

        return final


def compile_rule(engine, rule, plan: JoinPlan, counting: bool = False) -> CompiledRule:
    """Lower ``rule`` under ``plan`` into a :class:`CompiledRule`.

    ``counting`` additionally threads per-step row counters through the
    chain (used by the tracer's EXPLAIN output); leave it off on the hot
    path.  Raises :class:`CompilationFallback` when the rule cannot be
    lowered soundly.
    """
    if not plan.feasible:
        raise CompilationFallback("plan fell back to textual order")
    lowering = _Lowering(engine, rule, plan, counting)
    literals = rule.body

    seed_factory = None
    if plan.seed_index is not None:
        seed_factory = lowering.lower_seed(literals[plan.seed_index])

    makers = []
    for step_number, index in enumerate(plan.order):
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
            raise CompilationFallback(f"unsupported body literal {literal!r}")
        makers.append((step_number, maker))

    step = lowering.lower_final()
    for step_number, maker in reversed(makers):
        if lowering.counting:
            step = _counted(step, lowering.counts, step_number)
        step = maker(step)

    regs = [None] * len(lowering.slots)
    if seed_factory is not None:
        entry = None
        seed_entry = seed_factory(step, regs)
    else:
        entry = step
        seed_entry = None
    return CompiledRule(
        plan, entry, seed_entry, regs, lowering.sink, lowering.firings, lowering.counts
    )
