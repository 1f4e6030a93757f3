"""Fixpoint evaluation: stratified, semi-naive chase with monotonic aggregation.

The engine implements the Vadalog fragment the paper's programs use:

* plain Datalog with recursion, evaluated semi-naively;
* existential rules — head variables not bound by the body become labelled
  nulls, invented deterministically per frontier binding (skolemized
  chase), so re-derivations are deduplicated and the chase terminates on
  the warded programs the paper writes;
* Skolem functions ``#sk(...)`` (deterministic, injective, disjoint ranges);
* stratified negation;
* monotonic aggregation (``msum``, ``mprod``, ``mmin``, ``mmax``,
  ``mcount``) usable inside recursion: each contributor is counted once
  per group at its best value, so updates are monotone and idempotent;
* external Python functions ``$name(...)`` via a :class:`FunctionRegistry`.

Aggregate grouping follows Vadalog: the group of ``T = msum(W, <Z>)`` is
the binding of the head variables that are bound before the aggregate is
reached (the result variable excluded); each distinct contributor tuple
``Z`` contributes once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

from ..telemetry import NULL_TRACER
from .atoms import Aggregate, Assignment, Atom, Comparison, Negation
from .builtins import Binding, FunctionRegistry, compare, evaluate
from .database import Database, Fact, FactValues
from .errors import EvaluationError
from .planner import order_sensitive_predicates, plan_rule
from .rules import Program, Rule
from .stratify import Stratum, stratify
from .terms import Constant, Null, Variable, skolem
from .vectorized import (
    VectorizationFallback,
    VectorRuntimeFallback,
    compile_rule_vectorized,
)

#: cache sentinel: (rule, seed) pair not compiled yet
_COMPILE_MISS = object()


@dataclass
class Derivation:
    """Provenance record: how a fact was first derived."""

    rule: Rule
    body_facts: tuple[Fact, ...]


@dataclass
class EngineStats:
    """Counters exposed after a run, useful in benchmarks and tests."""

    iterations: int = 0
    facts_derived: int = 0
    rule_firings: int = 0
    strata: int = 0


class _AggregateState:
    """Monotone per-(rule, aggregate, group) accumulator.

    Stores the best contribution seen per contributor key and the current
    aggregate total.  ``update`` returns the current total (idempotent on
    repeated identical contributions).
    """

    __slots__ = ("func", "contributions", "total")

    def __init__(self, func: str):
        self.func = func
        self.contributions: dict[tuple, float] = {}
        self.total: float | int | None = None

    def update(self, contributor_key: tuple, value: Any) -> tuple[Any, bool]:
        """Fold one contribution in; returns (current total, improved?)."""
        previous = self.contributions.get(contributor_key)
        if self.func == "mcount":
            # the total is the number of distinct contributors: a repeat
            # contribution cannot move the count even if its value grew,
            # so only a new contributor key reports improvement (anything
            # else defeats the duplicate-round pruning downstream)
            improved = previous is None
        elif self.func in ("msum", "mmax", "mprod"):
            improved = previous is None or value > previous
        else:  # mmin decreases monotonically
            improved = previous is None or value < previous
        if improved:
            self.contributions[contributor_key] = value
            self._recompute(contributor_key, previous, value)
        return self.total, improved

    def _recompute(self, key: tuple, previous: Any, value: Any) -> None:
        if self.func == "msum":
            if self.total is None:
                self.total = value
            elif previous is None:
                self.total += value
            else:
                self.total += value - previous
        elif self.func == "mcount":
            self.total = len(self.contributions)
        elif self.func == "mmax":
            self.total = value if self.total is None else max(self.total, value)
        elif self.func == "mmin":
            self.total = value if self.total is None else min(self.total, value)
        elif self.func == "mprod":
            product = 1
            for contribution in self.contributions.values():
                product *= contribution
            self.total = product


class Engine:
    """Evaluates a :class:`Program` over a :class:`Database` to a fixpoint."""

    def __init__(
        self,
        program: Program,
        database: Database | None = None,
        functions: FunctionRegistry | None = None,
        provenance: bool = False,
        max_iterations: int = 1_000_000,
        seminaive: bool = True,
        tracer=None,
        plan: bool = True,
        vectorize: bool = True,
    ):
        self.program = program
        self.database = database if database is not None else Database()
        self.functions = functions if functions is not None else FunctionRegistry()
        self.provenance_enabled = provenance
        self.provenance: dict[Fact, Derivation] = {}
        self.max_iterations = max_iterations
        self.seminaive = seminaive
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # plan=False preserves the textual-order interpreted path (used by
        # the ablation benchmarks); provenance implies it, since compiled
        # evaluators do not record body-fact traces
        self.plan_enabled = plan and not provenance
        # vectorize=False keeps the per-tuple compiled path as the
        # bit-identity oracle
        self.vectorize_enabled = self.plan_enabled and vectorize
        # (rule id, seed literal index) -> [current JoinPlan, replans]
        self._plans: dict[tuple[int, int | None], list] = {}
        # (rule id, seed literal index) -> CompiledRule, or None once a
        # CompilationFallback proved the pair structurally uncompilable;
        # filled only for pairs that run per row (see _compiled_for)
        self._compiled_cache: dict[tuple[int, int | None], Any] = {}
        self._plan_fallbacks: dict[tuple[int, int | None], str] = {}
        # (rule id, seed literal index) -> (plan signature, VectorizedRule
        # or None when that plan shape could not be lowered to the batch
        # backend); a changed signature forces re-lowering
        self._vector_cache: dict[tuple[int, int | None], tuple] = {}
        self._vector_fallbacks: dict[tuple[int, int | None], str] = {}
        # pairs permanently reverted to the compiled path after a runtime
        # safety check failed (data-dependent, so retrying cannot help)
        self._vector_disabled: set[tuple[int, int | None]] = set()
        self._order_sensitive: set[str] | None = None
        self.stats = EngineStats()
        self._aggregate_states: dict[tuple, _AggregateState] = {}
        self._group_vars_cache: dict[tuple, tuple[str, ...]] = {}
        self._head_plan_cache: dict[int, tuple] = {}
        # per-atom term plans: position -> ("var", name) | ("const", value)
        # | ("complex", term); avoids isinstance dispatch in the join loops
        self._atom_plan_cache: dict[int, tuple] = {}
        self.database.add_all(program.facts)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self) -> Database:
        """Evaluate the program to a fixpoint and return the database."""
        strata = stratify(self.program)
        self.stats.strata = len(strata)
        with self.tracer.span(
            "engine.run", rules=len(self.program.rules), strata=len(strata)
        ) as run_span:
            for number, stratum in enumerate(strata):
                if not stratum.rules:
                    continue
                if self.tracer.enabled:
                    with self.tracer.span(
                        f"stratum[{number}]", rules=len(stratum.rules)
                    ) as span:
                        self._evaluate_stratum(stratum, span)
                else:
                    self._evaluate_stratum(stratum)
            if self.tracer.enabled and self._plans:
                self._emit_plan_spans(run_span)
            run_span.set("iterations", self.stats.iterations)
            run_span.set("rule_firings", self.stats.rule_firings)
            run_span.set("facts_derived", self.stats.facts_derived)
            run_span.set("facts_total", self.database.count())
            run_span.record_memory()
        return self.database

    def query(self, predicate: str, pattern: dict[int, Any] | None = None) -> list[FactValues]:
        """Facts of ``predicate`` matching an optional positional pattern."""
        return list(self.database.match(predicate, pattern or {}))

    def holds(self, predicate: str, values: FactValues) -> bool:
        return self.database.contains(predicate, values)

    def ask(self, query: str) -> list[Binding]:
        """Answer an atom query written in rule syntax, e.g.
        ``controls("p1", X)`` — returns one variable binding per match.

        Constants filter positionally; repeated variables must unify.
        A ground query returns ``[{}]`` when the fact holds, else ``[]``.
        """
        from .parser import parse_rule

        rule = parse_rule(f"{query} -> askresult(0).")
        atom = rule.body[0]
        if not isinstance(atom, Atom) or len(rule.body) != 1:
            raise EvaluationError("ask() accepts a single atom query")
        results: list[Binding] = []
        pattern = self._atom_pattern(atom, {})
        for values in self.database.match(atom.predicate, pattern):
            binding = self._bind_atom(atom, values, {})
            if binding is not None:
                results.append(binding)
        return results

    def explain(self, predicate: str, values: FactValues, _depth: int = 0) -> list[str]:
        """Human-readable derivation tree for a fact (requires provenance)."""
        indent = "  " * _depth
        fact = (predicate, values)
        rendered = f"{indent}{predicate}{values}"
        derivation = self.provenance.get(fact)
        if derivation is None:
            return [f"{rendered}  [extensional]"]
        label = derivation.rule.label or str(derivation.rule)
        lines = [f"{rendered}  [by rule: {label}]"]
        if _depth >= 20:
            lines.append(f"{indent}  ... (depth limit)")
            return lines
        for body_predicate, body_values in derivation.body_facts:
            lines.extend(self.explain(body_predicate, body_values, _depth + 1))
        return lines

    # ------------------------------------------------------------------
    # stratum evaluation
    # ------------------------------------------------------------------

    def _evaluate_stratum(self, stratum: Stratum, span=None) -> None:
        # Per-rule accumulators (wall seconds, applications, firings,
        # derived facts), populated only when a live tracer is attached.
        rule_metrics: dict[int, list] | None = {} if span is not None else None
        store = self.database.column_store()
        heads = set().union(*(rule.head_predicates() for rule in stratum.rules))

        # Exit rules read nothing this stratum derives, so one application,
        # before anything else, finds all their facts. Those facts go into
        # the database but not into the delta: round 0 of the other rules
        # sees them in full, so no later round needs them as a seed. (The
        # naive ablation baseline keeps every rule in every round.)
        rules: list[Rule] = []
        exit_rules: list[Rule] = []
        for rule in stratum.rules:
            exits = self.seminaive and not rule.body_predicates() & stratum.predicates
            (exit_rules if exits else rules).append(rule)
        for rule in exit_rules:
            self._apply_rule(rule, None, None, rule_metrics)
        if span is not None and self.seminaive:
            span.set("exit_rules", len(exit_rules))

        # Round 0: full evaluation of every other rule. A round's delta
        # is what it appended: the rows of each block past its mark.
        marks = store.sizes(heads)
        derived = 0
        for rule in rules:
            derived += self._apply_rule(rule, None, None, rule_metrics)
        self.stats.iterations += 1
        if span is not None:
            span.append("delta_sizes", derived)

        if not self.seminaive:
            # Naive mode (for the ablation benchmark): re-run all rules on
            # the full database until nothing new appears.
            changed = bool(derived)
            while changed:
                self._check_iteration_budget()
                changed = False
                for rule in stratum.rules:
                    if self._apply_rule(rule, None, None, rule_metrics):
                        changed = True
                self.stats.iterations += 1
            self._finish_stratum_span(stratum, span, rule_metrics)
            return

        # Semi-naive rounds: seed each rule occurrence with the last delta,
        # as the row range [start, stop) of the block its atom reads.
        while derived:
            self._check_iteration_budget()
            delta: dict[str, dict[int, tuple[int, int]]] = {}
            for (predicate, arity), size in store.sizes(heads).items():
                start = marks.get((predicate, arity), 0)
                if size > start:
                    delta.setdefault(predicate, {})[arity] = (start, size)
            marks = store.sizes(heads)
            derived = 0
            for rule in rules:
                body = rule.body
                for occurrence, literal_index in enumerate(rule.positive_positions()):
                    atom = body[literal_index]
                    ranges = delta.get(atom.predicate)
                    if ranges is None:
                        continue
                    derived += self._apply_rule(
                        rule, occurrence, ranges.get(atom.arity, (0, 0)), rule_metrics
                    )
            self.stats.iterations += 1
            if span is not None:
                span.append("delta_sizes", derived)
        self._finish_stratum_span(stratum, span, rule_metrics)

    def _finish_stratum_span(
        self, stratum: Stratum, span, rule_metrics: dict[int, list] | None
    ) -> None:
        """Attach per-rule child spans and aggregate-state sizes."""
        if span is None or rule_metrics is None:
            return
        for rule in stratum.rules:
            metrics = rule_metrics.get(id(rule))
            if metrics is None:
                continue
            elapsed, applications, firings, derived = metrics
            label = rule.label or str(rule)
            if len(label) > 70:
                label = label[:67] + "..."
            child = span.child(f"rule:{label}")
            child.set("applications", applications)
            child.set("firings", firings)
            child.set("derived", derived)
            self._set_vector_attributes(
                child, [key for key in self._vector_cache if key[0] == id(rule)]
            )
            child.finish(duration=elapsed)
        if self._aggregate_states:
            span.set("aggregate_groups", len(self._aggregate_states))
            span.set(
                "aggregate_contributions",
                sum(len(s.contributions) for s in self._aggregate_states.values()),
            )

    def _check_iteration_budget(self) -> None:
        if self.stats.iterations >= self.max_iterations:
            raise EvaluationError(
                f"fixpoint did not converge within {self.max_iterations} iterations"
            )

    # ------------------------------------------------------------------
    # single-rule application
    # ------------------------------------------------------------------

    def _apply_rule(
        self,
        rule: Rule,
        seed_predicate: int | None,
        seed: tuple[int, int] | None,
        rule_metrics: dict[int, list] | None = None,
    ) -> int:
        """Fire ``rule`` and return how many new facts it derived.

        ``seed_predicate`` selects a positive-atom occurrence forced to
        range over ``seed`` — the rows [start, stop) of its relation's
        block, the semi-naive delta — instead of the whole relation.
        ``rule_metrics`` (tracing only) accumulates per-rule [wall
        seconds, applications, firings, derived facts].
        """
        if rule_metrics is not None:
            started = time.perf_counter()
            firings_before = self.stats.rule_firings
            new = self._apply_rule_inner(rule, seed_predicate, seed)
            metrics = rule_metrics.get(id(rule))
            if metrics is None:
                metrics = rule_metrics[id(rule)] = [0.0, 0, 0, 0]
            metrics[0] += time.perf_counter() - started
            metrics[1] += 1
            metrics[2] += self.stats.rule_firings - firings_before
            metrics[3] += new
            return new
        return self._apply_rule_inner(rule, seed_predicate, seed)

    def _apply_rule_inner(
        self,
        rule: Rule,
        seed_predicate: int | None,
        seed: tuple[int, int] | None,
    ) -> int:
        seed_literal_index: int | None = None
        if seed_predicate is not None:
            seed_literal_index = rule.positive_positions()[seed_predicate]

        key = (id(rule), seed_literal_index)
        if self.plan_enabled and self._compiled_cache.get(key, _COMPILE_MISS) is not None:
            plan = self._plan_for(rule, seed_literal_index)
            if self.vectorize_enabled:
                vectorized = self._vectorized_for(rule, seed_literal_index, plan)
                if vectorized is not None:
                    try:
                        derived, firings = vectorized.execute(seed)
                    except VectorRuntimeFallback as fallback:
                        # raised with the engine's state as it was before
                        # the execution: re-running on the compiled path
                        # cannot double count
                        self._vector_disabled.add(key)
                        self._vector_fallbacks[key] = str(fallback)
                    else:
                        return self._ingest(derived, firings, vectorized.coded)
            compiled = self._compiled_for(rule, seed_literal_index, plan)
            if compiled is not None:
                seed_facts = self._seed_rows(rule, seed_literal_index, seed)
                derived, firings = compiled.execute(seed_facts)
                return self._ingest(derived, firings)

        seed_facts = self._seed_rows(rule, seed_literal_index, seed)
        new = 0
        literals = list(rule.body)

        # Buffer derivations and flush after the join: the rule must see the
        # database as of the start of this application, not facts it is
        # itself deriving (otherwise a rule like p(X), Y = X+1 -> p(Y)
        # extends the scan it is iterating and round 0 never ends).
        pending: list[tuple[Fact, tuple[Fact, ...]]] = []
        trace: list[Fact] = []
        for binding in self._join(
            rule, literals, seed_literal_index, seed_facts, trace=trace
        ):
            self.stats.rule_firings += 1
            derived = self._instantiate_head(rule, binding)
            trace_snapshot = tuple(trace) if self.provenance_enabled else ()
            for fact in derived:
                pending.append((fact, trace_snapshot))

        if not self.provenance_enabled:
            return self._ingest([fact for fact, _ in pending], 0)
        for fact, trace_snapshot in pending:
            predicate, values = fact
            if self.database.add(predicate, values):
                new += 1
                self.stats.facts_derived += 1
                if fact not in self.provenance:
                    self.provenance[fact] = Derivation(rule, trace_snapshot)
        return new

    def _seed_rows(
        self, rule: Rule, seed_literal_index: int | None, seed: tuple[int, int] | None
    ) -> list[FactValues] | None:
        """The seed's rows, decoded, for the per-row executors."""
        if seed is None or seed[0] == seed[1]:
            return None if seed is None else []
        atom = rule.body[seed_literal_index]
        return self.database.column_store().rows(atom.predicate, atom.arity, *seed)

    # ------------------------------------------------------------------
    # planned / compiled evaluation
    # ------------------------------------------------------------------

    def _plan_for(self, rule: Rule, seed_literal_index: int | None):
        """The current join plan for (rule, seed occurrence).

        Plans on first use and re-plans when the database's cardinality
        snapshot drifts past the planner's threshold; the lowered
        evaluators compare the plan's signature and are kept when the
        fresh plan has the same shape.
        """
        key = (id(rule), seed_literal_index)
        entry = self._plans.get(key)
        if entry is not None and not entry[0].stale(self.database):
            return entry[0]
        plan = plan_rule(
            rule, seed_literal_index, self.database, reorder=self._may_reorder(rule)
        )
        if entry is None:
            self._plans[key] = [plan, 0]
        else:
            entry[0] = plan
            entry[1] += 1
        return plan

    def _compiled_for(self, rule: Rule, seed_literal_index: int | None, plan=None):
        """The closure chain for (rule, seed occurrence) under its current
        plan (``plan``, or planned here), or None — permanently — for
        pairs the lowering proved uncompilable.

        Built on demand only: a pair the batch backend carries to the
        head never gets one, so it builds no hash index either.
        """
        key = (id(rule), seed_literal_index)
        cached = self._compiled_cache.get(key, _COMPILE_MISS)
        if cached is None:
            return None
        if plan is None:
            plan = self._plan_for(rule, seed_literal_index)
        if cached is not _COMPILE_MISS and (
            cached.plan is plan or cached.plan.signature() == plan.signature()
        ):
            cached.plan = plan
            return cached
        # imported here: a run in which every rule is columnar never needs it
        from .compiled import CompilationFallback, compile_rule

        try:
            compiled = compile_rule(self, rule, plan, counting=self.tracer.enabled)
        except CompilationFallback as fallback:
            self._plan_fallbacks[key] = str(fallback)
            self._compiled_cache[key] = None
            return None
        self._compiled_cache[key] = compiled
        return compiled

    def _may_reorder(self, rule: Rule) -> bool:
        """Atom reordering is allowed only when the rule's emission order
        cannot reach a monotone aggregate (whose intermediate totals are
        sensitive to contribution order across semi-naive rounds)."""
        if self._order_sensitive is None:
            self._order_sensitive = order_sensitive_predicates(self.program)
        return not (rule.head_predicates() & self._order_sensitive)

    def _vectorized_for(self, rule: Rule, seed_literal_index: int | None, plan):
        """The cached batch evaluator for (rule, seed occurrence), or None.

        Validated against the plan's *signature* (a re-plan may swap the
        plan object while keeping the shape); a shape change re-lowers,
        including pairs whose previous shape fell back.  Pairs in
        ``_vector_disabled`` (runtime safety fallback) stay compiled for
        the lifetime of the engine.
        """
        key = (id(rule), seed_literal_index)
        if key in self._vector_disabled:
            return None
        signature = plan.signature()
        cached = self._vector_cache.get(key)
        if cached is not None and cached[0] == signature:
            return cached[1]
        try:
            vectorized = compile_rule_vectorized(self, rule, plan)
        except VectorizationFallback as fallback:
            self._vector_fallbacks[key] = str(fallback)
            self._vector_cache[key] = (signature, None)
            return None
        self._vector_fallbacks.pop(key, None)
        self._vector_cache[key] = (signature, vectorized)
        return vectorized

    def _set_vector_attributes(self, span, keys) -> None:
        """How far the batch backend carried the (rule, seed) pairs in
        ``keys``: ``cut`` is the first plan step that ran per row (the
        smallest over the pairs; ``len(order)`` means only the head did)
        or "none" when every pair stayed vectorized end to end;
        ``morsels`` counts the tables they streamed through their steps
        (one per seed slice and per join slice) and ``max_rows`` is the
        most rows one of those tables or a step's result held;
        ``external_rows`` / ``external_distinct`` count the rows their
        batch externals saw and the distinct argument tuples they scored
        (distinct within each morsel); ``reduced_in`` / ``reduced_out``
        the relation rows their reduced atoms stood for and the rows they
        joined instead (absent when no atom is reduced).  Sets nothing
        when no pair runs vectorized."""
        entries = [
            self._vector_cache.get(key)
            for key in keys
            if key not in self._vector_disabled
        ]
        lowered = [entry[1] for entry in entries if entry and entry[1] is not None]
        if not lowered:
            return
        cuts = [rule.cut for rule in lowered if rule.cut is not None]
        span.set("cut", min(cuts) if cuts else "none")
        span.set("morsels", sum(rule.streamed[0] for rule in lowered))
        span.set("max_rows", max(rule.streamed[1] for rule in lowered))
        externals = [rule.external for rule in lowered if rule.external is not None]
        if externals:
            span.set("external_rows", sum(rows for rows, _ in externals))
            span.set("external_distinct", sum(distinct for _, distinct in externals))
        reductions = [rule.reduced for rule in lowered if rule.reduced is not None]
        if reductions:
            span.set("reduced_in", sum(scanned for scanned, _ in reductions))
            span.set("reduced_out", sum(kept for _, kept in reductions))

    def _ingest(self, derived: list, firings: int, coded: bool = False) -> int:
        """Flush an evaluator's output into the database — fact tuples,
        or with ``coded`` a vectorized head's (predicate, arity, code
        columns, rows) batches; returns how many facts were new."""
        self.stats.rule_firings += firings
        if coded:
            new = sum(self.database.append(*batch) for batch in derived)
        else:
            new = self.database.add_all(derived)
        self.stats.facts_derived += new
        return new

    def _emit_plan_spans(self, run_span) -> None:
        """EXPLAIN: one child span per (rule, seed occurrence) plan.

        ``estimated_rows`` is the planner's per-application estimate for
        each step; ``actual_rows`` counts what left the step summed over
        the whole run: bindings on the compiled backend, binding-table
        rows (after reduction, so possibly fewer than bindings) on the
        vectorized one.
        """
        rules_by_id = {id(rule): rule for rule in self.program.rules}
        parent = run_span.child("planner")
        compiled_rules = 0
        for key, (plan, replans) in self._plans.items():
            rule_id, seed_index = key
            rule = rules_by_id.get(rule_id)
            label = (rule.label or str(rule)) if rule is not None else hex(rule_id)
            if len(label) > 70:
                label = label[:67] + "..."
            suffix = "" if seed_index is None else f" seed@{seed_index}"
            child = parent.child(f"plan:{label}{suffix}")
            compiled = self._compiled_cache.get(key)
            if key in self._compiled_cache and compiled is None:
                child.set("fallback", self._plan_fallbacks.get(key, "interpreted"))
                child.finish(duration=0.0)
                continue
            compiled_rules += 1
            counts = None if compiled is None else compiled.counts
            if self.vectorize_enabled:
                entry = self._vector_cache.get(key)
                vectorized = (
                    entry is not None
                    and entry[1] is not None
                    and key not in self._vector_disabled
                )
                if vectorized:
                    counts = entry[1].counts
                child.set("backend", "vectorized" if vectorized else "compiled")
                self._set_vector_attributes(child, [key])
                if not vectorized:
                    reason = self._vector_fallbacks.get(key)
                    if reason:
                        child.set("vector_fallback", reason)
            else:
                child.set("backend", "compiled")
            child.set("order", plan.describe())
            child.set(
                "estimated_rows",
                [round(step.estimated_rows, 1) for step in plan.steps],
            )
            if counts is not None:
                child.set("actual_rows", list(counts))
            if replans:
                child.set("replans", replans)
            child.finish(duration=0.0)
        parent.set("compiled_rules", compiled_rules)
        parent.finish(duration=0.0)

    def _join(
        self,
        rule: Rule,
        literals: list,
        seed_literal_index: int | None,
        seed_facts: list[FactValues] | None,
        trace: list[Fact],
    ) -> Iterator[Binding]:
        """Enumerate bindings satisfying the rule body.

        When a seed is given, the seed atom is matched first (over the
        delta), then the remaining literals in their original order — safe
        because moving an atom earlier can only increase boundness.  The
        seed atom ranges over raw delta facts with no index pattern, so
        its complex terms (Skolem terms / expressions, normally folded
        into the pattern) must be checked here: positions evaluable from
        the seed atom's own variables are checked immediately, the rest
        are deferred until the full binding is known.
        """
        if seed_literal_index is None:
            yield from self._match_from(
                rule, literals, list(range(len(literals))), 0, {}, trace
            )
            return

        seed_literal = literals[seed_literal_index]
        rest_order = [
            index for index in range(len(literals)) if index != seed_literal_index
        ]
        complex_entries = [
            (position, payload)
            for position, kind, payload in self._atom_plan(seed_literal)
            if kind == "complex"
        ]
        for values in seed_facts or ():
            extension = self._bind_atom(seed_literal, values, {})
            if extension is None:
                continue
            deferred: list[tuple[Any, Any]] = []
            if complex_entries and not self._check_complex_terms(
                seed_literal, complex_entries, values, extension, deferred
            ):
                continue
            if self.provenance_enabled:
                trace.append((seed_literal.predicate, values))
            for binding in self._match_from(
                rule, literals, rest_order, 0, extension, trace
            ):
                if deferred and not self._deferred_hold(seed_literal, deferred, binding):
                    continue
                yield binding
            if self.provenance_enabled:
                trace.pop()

    def _check_complex_terms(
        self,
        atom: Atom,
        entries: list[tuple[int, Any]],
        values: FactValues,
        binding: Binding,
        deferred: list[tuple[Any, Any]],
    ) -> bool:
        """Check a seed fact against the atom's complex-term positions.

        Terms not yet evaluable (their variables are bound by literals
        matched after the seed) land in ``deferred`` as (term, expected
        value) pairs for :meth:`_deferred_hold`.
        """
        for position, term in entries:
            try:
                value = evaluate(term, binding, self.functions)
            except EvaluationError:
                deferred.append((term, values[position]))
                continue
            if value != values[position]:
                return False
        return True

    def _deferred_hold(
        self, atom: Atom, deferred: list[tuple[Any, Any]], binding: Binding
    ) -> bool:
        for term, expected in deferred:
            try:
                value = evaluate(term, binding, self.functions)
            except EvaluationError:
                raise EvaluationError(
                    f"body atom {atom} has a complex term {term} "
                    "with unbound variables"
                ) from None
            if value != expected:
                return False
        return True

    def _match_from(
        self,
        rule: Rule,
        literals: list,
        order: list[int],
        depth: int,
        binding: Binding,
        trace: list[Fact],
    ) -> Iterator[Binding]:
        if depth == len(order):
            yield binding
            return
        literal = literals[order[depth]]

        if isinstance(literal, Atom):
            pattern = self._atom_pattern(literal, binding)
            for values in self.database.match(literal.predicate, pattern):
                extension = self._bind_atom(literal, values, binding)
                if extension is None:
                    continue
                if self.provenance_enabled:
                    trace.append((literal.predicate, values))
                yield from self._match_from(
                    rule, literals, order, depth + 1, extension, trace
                )
                if self.provenance_enabled:
                    trace.pop()
            return

        if isinstance(literal, Negation):
            pattern = self._atom_pattern(literal.atom, binding)
            if next(iter(self.database.match(literal.atom.predicate, pattern)), None) is None:
                yield from self._match_from(
                    rule, literals, order, depth + 1, binding, trace
                )
            return

        if isinstance(literal, Comparison):
            lhs = evaluate(literal.lhs, binding, self.functions)
            rhs = evaluate(literal.rhs, binding, self.functions)
            if compare(literal.op, lhs, rhs):
                yield from self._match_from(
                    rule, literals, order, depth + 1, binding, trace
                )
            return

        if isinstance(literal, Assignment):
            value = evaluate(literal.expression, binding, self.functions)
            name = literal.variable.name
            if name in binding:
                if binding[name] == value:
                    yield from self._match_from(
                        rule, literals, order, depth + 1, binding, trace
                    )
                return
            extension = dict(binding)
            extension[name] = value
            yield from self._match_from(
                rule, literals, order, depth + 1, extension, trace
            )
            return

        if isinstance(literal, Aggregate):
            total, improved = self._update_aggregate(rule, literal, binding)
            if not improved and self._aggregate_skippable(rule, literal):
                # the aggregate did not move and every head variable is
                # determined by (group, total): continuing would re-derive
                # facts set semantics discards anyway
                return
            extension = dict(binding)
            extension[literal.variable.name] = total
            yield from self._match_from(
                rule, literals, order, depth + 1, extension, trace
            )
            return

        raise EvaluationError(f"unsupported body literal {literal!r}")

    # ------------------------------------------------------------------
    # literal helpers
    # ------------------------------------------------------------------

    def _atom_plan(self, atom: Atom) -> tuple:
        """Cached classification of an atom's terms for the join loops.

        The cache entry pins the atom object: keying on ``id()`` alone is
        unsound for ephemeral atoms (``ask()`` builds one per query, and a
        garbage-collected atom's id can be reused by the next one, which
        would then silently inherit the dead atom's plan).
        """
        entry = self._atom_plan_cache.get(id(atom))
        if entry is not None and entry[0] is atom:
            return entry[1]
        entries = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                entries.append((position, "var", term.name))
            elif isinstance(term, Constant):
                entries.append((position, "const", term.value))
            else:
                entries.append((position, "complex", term))
        plan = tuple(entries)
        self._atom_plan_cache[id(atom)] = (atom, plan)
        return plan

    def _atom_pattern(self, atom: Atom, binding: Binding) -> dict[int, Any]:
        """Positions of ``atom`` already determined by constants/bound vars."""
        pattern: dict[int, Any] = {}
        for position, kind, payload in self._atom_plan(atom):
            if kind == "const":
                pattern[position] = payload
            elif kind == "var":
                if payload in binding:
                    pattern[position] = binding[payload]
            else:
                # complex term in a body atom: evaluable only if fully bound
                try:
                    pattern[position] = evaluate(payload, binding, self.functions)
                except EvaluationError:
                    raise EvaluationError(
                        f"body atom {atom} has a complex term {payload} "
                        "with unbound variables"
                    ) from None
        return pattern

    def _bind_atom(self, atom: Atom, values: FactValues, binding: Binding) -> Binding | None:
        """Extend ``binding`` by unifying ``atom`` with a fact, or None on clash."""
        if len(values) != atom.arity:
            return None
        extension: Binding | None = None
        for position, kind, payload in self._atom_plan(atom):
            value = values[position]
            if kind == "var":
                if extension is not None and payload in extension:
                    if extension[payload] != value:
                        return None
                elif payload in binding:
                    if binding[payload] != value:
                        return None
                else:
                    if extension is None:
                        extension = dict(binding)
                    extension[payload] = value
            elif kind == "const":
                if payload != value:
                    return None
            # complex terms are folded into the index pattern on the
            # non-seed path; the seed path checks them in _join (see
            # _check_complex_terms), since seed facts bypass the pattern
        return extension if extension is not None else dict(binding)

    def _aggregate_skippable(self, rule: Rule, aggregate: Aggregate) -> bool:
        """Can an unimproved aggregate prune the rest of the rule?

        Safe when every head variable is either the aggregate's result or
        part of its group key — then an unchanged total implies every
        derivable head fact is a duplicate.  Comparisons/assignments after
        the aggregate are pure, so pruning cannot lose facts.
        """
        cache_key = (id(rule), id(aggregate), "skippable")
        cached = self._group_vars_cache.get(cache_key)
        if cached is not None:
            return bool(cached[0])
        # the whole tail after the aggregate must be *determined* by
        # (group, total): any atom, negation, or literal reading other
        # variables could behave differently across firings that share an
        # unchanged total, so pruning would be unsound
        group = set(self._aggregate_group_vars(rule, aggregate))
        determined = group | {aggregate.variable.name}
        seen_aggregate = False
        tail_safe = True
        for literal in rule.body:
            if literal is aggregate:
                seen_aggregate = True
                continue
            if not seen_aggregate:
                continue
            if isinstance(literal, (Atom, Negation, Aggregate)):
                tail_safe = False
                break
            if isinstance(literal, Comparison):
                if not {v.name for v in literal.variables()} <= determined:
                    tail_safe = False
                    break
            elif isinstance(literal, Assignment):
                if not {v.name for v in literal.variables()} <= determined:
                    tail_safe = False
                    break
                determined.add(literal.variable.name)
        head_names = {v.name for v in rule.full_head_variables()}
        skippable = tail_safe and head_names <= determined
        self._group_vars_cache[cache_key] = ("1" if skippable else "",)
        return skippable

    def _update_aggregate(
        self, rule: Rule, aggregate: Aggregate, binding: Binding
    ) -> tuple[Any, bool]:
        group_vars = self._aggregate_group_vars(rule, aggregate)
        group_key = tuple(binding.get(name) for name in group_vars)
        state_key = (id(rule), id(aggregate), group_key)
        state = self._aggregate_states.get(state_key)
        if state is None:
            state = _AggregateState(aggregate.func)
            self._aggregate_states[state_key] = state
        if aggregate.contributors:
            contributor_key = tuple(binding[v.name] for v in aggregate.contributors)
        else:
            contributor_key = tuple(sorted(binding.items(), key=lambda item: item[0]))
        value = evaluate(aggregate.expression, binding, self.functions)
        return state.update(contributor_key, value)

    def _aggregate_group_vars(self, rule: Rule, aggregate: Aggregate) -> tuple[str, ...]:
        cache_key = (id(rule), id(aggregate))
        cached = self._group_vars_cache.get(cache_key)
        if cached is not None:
            return cached
        aggregate_result_names = {a.variable.name for a in rule.aggregates()}
        head_names = {v.name for v in rule.full_head_variables()}
        bound_before: set[str] = set()
        for literal in rule.body:
            if literal is aggregate:
                break
            if isinstance(literal, Atom):
                bound_before.update(v.name for v in literal.variables())
            elif isinstance(literal, (Assignment, Aggregate)):
                bound_before.add(literal.variable.name)
        group = tuple(sorted((head_names - aggregate_result_names) & bound_before))
        self._group_vars_cache[cache_key] = group
        return group

    # ------------------------------------------------------------------
    # head instantiation
    # ------------------------------------------------------------------

    def _head_plan(self, rule: Rule) -> tuple:
        """Cached per-rule head analysis: (existential names, frontier names,
        rule id) — recomputing these per firing dominates hot loops."""
        cached = self._head_plan_cache.get(id(rule))
        if cached is None:
            existential = tuple(
                sorted(v.name for v in rule.existential_variables())
            )
            frontier = tuple(sorted(v.name for v in rule.frontier_variables()))
            # a sliced rule invents the nulls its origin would
            source = rule.origin or rule
            rule_id = source.label or f"rule@{id(source)}"
            cached = (existential, frontier, rule_id)
            self._head_plan_cache[id(rule)] = cached
        return cached

    def _instantiate_head(self, rule: Rule, binding: Binding) -> list[Fact]:
        existential, frontier, rule_id = self._head_plan(rule)
        if existential:
            binding = dict(binding)
            frontier_values = tuple(binding.get(name) for name in frontier)
            for name in existential:
                label = skolem(f"null:{rule_id}:{name}", frontier_values)
                binding[name] = Null(label)
        facts: list[Fact] = []
        for atom in rule.head:
            values = tuple(
                evaluate(term, binding, self.functions) for term in atom.terms
            )
            facts.append((atom.predicate, values))
        return facts


def solve(
    program: Program | str,
    facts: list[Fact] | Database | None = None,
    functions: FunctionRegistry | None = None,
    provenance: bool = False,
) -> Engine:
    """One-shot convenience: parse (if needed), load facts, run, return engine."""
    from .parser import parse_program

    if isinstance(program, str):
        program = parse_program(program)
    if isinstance(facts, Database):
        database = facts
    else:
        database = Database(facts or [])
    engine = Engine(program, database, functions=functions, provenance=provenance)
    engine.run()
    return engine
