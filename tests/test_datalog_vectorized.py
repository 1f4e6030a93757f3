"""Bit-identity oracles for the vectorized (batch columnar) backend.

The vectorized executor must be invisible except for speed: on every
program it either produces the *same insertion sequence* of facts and
the same firing counts as the per-tuple compiled path, or it falls back
to that path (per rule at lowering time, per engine key at runtime).
These tests pin all three backends against each other:

* ``Engine(...)``                 — vectorized (the default with numpy),
* ``Engine(..., vectorize=False)``— planned + compiled, the oracle,
* ``Engine(..., plan=False)``     — textual-order interpretation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.bench.workloads import density_scenario, ownership_pyramid
from repro.core import (
    KnowledgeGraph,
    PipelineConfig,
    ReasoningPipeline,
    close_link_program,
    family_control_program,
    input_mapping,
)
from repro.datagen import CompanySpec, generate_company_graph
from repro.datalog import Database, Engine, FunctionRegistry, parse_program
from repro.datalog.columns import NUMPY_AVAILABLE
from repro.datalog.vectorized import VectorRuntimeFallback
from repro.graph.relational import to_facts
from tests.test_datalog_properties import recursive_aggregate_programs

pytestmark = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="vectorized backend requires numpy"
)


def _fixpoint(program, facts, **kwargs):
    if isinstance(program, str):
        program = parse_program(program)
    engine = Engine(program, Database(list(facts)), **kwargs)
    engine.run()
    return engine


def _assert_three_way_identity(program_text, facts):
    """Vectorized == compiled bit-for-bit; both == interpreted as sets."""
    # parse once: existential nulls are skolemized per rule *instance*,
    # so cross-engine identity needs the same Rule objects
    program = parse_program(program_text)
    vec = _fixpoint(program, facts)
    cmp = _fixpoint(program, facts, vectorize=False)
    interp = _fixpoint(program, facts, plan=False)
    assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
    assert vec.stats.rule_firings == cmp.stats.rule_firings
    assert vec.stats.facts_derived == cmp.stats.facts_derived
    assert set(vec.database.all_facts()) == set(interp.database.all_facts())
    return vec, cmp


def _paper_engine(graph, body, families, **kwargs):
    kg = KnowledgeGraph(graph)
    kg.add_rules("map", input_mapping(families))
    kg.add_rules("task", body)
    engine = Engine(kg.program(), to_facts(graph), **kwargs)
    engine.run()
    return engine


class TestBackendSelection:
    def test_vectorize_on_by_default_when_planned(self):
        engine = _fixpoint("edge(X, Y) -> path(X, Y).", [("edge", (1, 2))])
        assert engine.vectorize_enabled
        assert engine._vector_cache  # the rule was lowered

    def test_vectorize_false_keeps_compiled_path(self):
        engine = _fixpoint(
            "edge(X, Y) -> path(X, Y).", [("edge", (1, 2))], vectorize=False
        )
        assert not engine.vectorize_enabled
        assert engine._vector_cache == {}
        assert engine.query("path") == [(1, 2)]

    def test_unplanned_engine_never_vectorizes(self):
        engine = _fixpoint(
            "edge(X, Y) -> path(X, Y).", [("edge", (1, 2))], plan=False
        )
        assert not engine.vectorize_enabled


class TestPaperWorkloadParity:
    """The two hottest declarative workloads, exactly as the bench runs them."""

    def test_close_links_pyramid(self):
        graph = ownership_pyramid(16, m=3, seed=7)
        body = close_link_program(0.2)
        vec = _paper_engine(graph, body, families=False)
        cmp = _paper_engine(graph, body, families=False, vectorize=False)
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
        assert vec.stats.rule_firings == cmp.stats.rule_firings
        # the close-link join rules must actually run vectorized
        assert vec._vector_fallbacks == {}
        assert vec._vector_disabled == set()

    def test_family_control_superdense(self):
        graph, _truth = density_scenario("superdense", 60, seed=7)
        body = family_control_program(0.5)
        vec = _paper_engine(graph, body, families=True)
        cmp = _paper_engine(graph, body, families=True, vectorize=False)
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
        assert vec.stats.rule_firings == cmp.stats.rule_firings
        assert vec._vector_fallbacks == {}
        assert vec._vector_disabled == set()


def _vector_rules(engine):
    """label -> VectorizedRule for every (rule, seed) lowered to batch."""
    labels = {id(rule): rule.label for rule in engine.program.rules}
    return {
        (labels[rule_id], seed): entry[1]
        for (rule_id, seed), entry in engine._vector_cache.items()
        if entry[1] is not None
    }


class TestBatchExternals:
    """An external with a batch form is one columnar step; the compiled
    and interpreted paths call the scalar form and stay the oracle."""

    PROGRAM = """
    @far n(X), n(Y), D = $gap(X, Y), D > 1.0 -> far(X, Y, D).
    @near n(X), n(Y), $gap(X, Y) < 1.5, X != Y -> near(X, Y).
    """
    FACTS = [("n", (v,)) for v in (1, 2, 4, 7, 2.0, 11)]

    def _registry(self, calls=None, batch=True):
        def gap(a, b):
            return float(abs(a - b))

        def gap_batch(values, args):
            xs, ys = args
            if calls is not None:
                calls.append(len(xs))
            return np.asarray(
                [gap(values[x], values[y]) for x, y in zip(xs.tolist(), ys.tolist())]
            )

        functions = FunctionRegistry()
        functions.register("gap", gap, batch=gap_batch if batch else None)
        return functions

    def _three_ways(self, program_text, facts, functions):
        program = parse_program(program_text)
        vec = _fixpoint(program, facts, functions=functions)
        cmp = _fixpoint(program, facts, functions=functions, vectorize=False)
        interp = _fixpoint(program, facts, functions=functions, plan=False)
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
        assert (
            vec.stats.rule_firings
            == cmp.stats.rule_firings
            == interp.stats.rule_firings
        )
        assert set(vec.database.all_facts()) == set(interp.database.all_facts())
        return vec

    def test_rule_stays_vectorized_and_matches_the_scalar_paths(self):
        calls = []
        vec = self._three_ways(self.PROGRAM, self.FACTS, self._registry(calls))
        assert vec._vector_disabled == set()
        for rule in _vector_rules(vec).values():
            assert rule.cut is None
        # 2 and 2.0 share a code: 5 distinct values, 25 distinct pairs,
        # scored once per rule application whatever the row count
        assert calls and set(calls) == {25}
        (far,) = [r for (label, _), r in _vector_rules(vec).items() if label == "far"]
        assert far.external == [25, 25]

    def test_without_batch_form_the_rule_cuts_to_the_tail(self):
        vec = self._three_ways(
            self.PROGRAM, self.FACTS, self._registry(batch=False)
        )
        cuts = {
            label: rule.cut for (label, _), rule in _vector_rules(vec).items()
        }
        assert cuts == {"far": 2, "near": 2}

    def test_chunks_bound_the_rows_per_call(self, monkeypatch):
        monkeypatch.setattr("repro.datalog.vectorized.EXTERNAL_CHUNK", 4)
        calls = []
        self._three_ways(self.PROGRAM, self.FACTS, self._registry(calls))
        assert max(calls) == 4 and sum(calls) == 50  # 25 tuples x 2 rules

    def test_float_columns_and_constants_are_passed_through(self):
        seen = []

        def scale(value, factor):
            return value * factor

        def scale_batch(values, args):
            column, factor = args
            seen.append((column.dtype, factor))
            return column * factor

        functions = FunctionRegistry()
        functions.register("scale", scale, batch=scale_batch)
        vec = self._three_ways(
            "v(X), H = X / 2.0, S = $scale(H, 3.0) -> out(X, S).",
            [("v", (float(i),)) for i in range(6)],
            functions,
        )
        assert seen == [(np.dtype("float64"), 3.0)]
        assert sorted(vec.query("out"))[-1] == (5.0, 7.5)

    def test_batch_form_raising_the_fallback_reverts_to_the_scalar(self):
        def refuse(values, args):
            raise VectorRuntimeFallback("not today")

        functions = self._registry()
        functions.register("gap", functions.get("gap"), batch=refuse)
        vec = self._three_ways(self.PROGRAM, self.FACTS, functions)
        assert len(vec._vector_disabled) == 2
        assert set(vec._vector_fallbacks.values()) == {"not today"}

    def test_wrong_result_shape_is_an_error(self):
        from repro.datalog import EvaluationError

        functions = self._registry()
        functions.register(
            "gap", functions.get("gap"), batch=lambda values, args: np.zeros(3)
        )
        with pytest.raises(EvaluationError, match="returned shape"):
            _fixpoint(self.PROGRAM, self.FACTS, functions=functions)


class TestFunctionRegistryForms:
    def test_scalar_only_reregistration_drops_the_batch_form(self):
        functions = FunctionRegistry()
        functions.register("f", lambda x: 1.0, batch=lambda values, args: None)
        assert functions.batch("f") is not None
        functions.register("f", lambda x: 2.0)
        assert functions.batch("f") is None
        assert functions.get("f")(0) == 2.0

    def test_unregister_and_copy_cover_both_forms(self):
        functions = FunctionRegistry()
        batch = lambda values, args: None  # noqa: E731
        functions.register("f", lambda x: 1.0, batch=batch)
        clone = functions.copy()
        functions.unregister("f")
        assert "f" not in functions and functions.batch("f") is None
        assert "f" in clone and clone.batch("f") is batch

    def test_override_after_lowering_takes_the_scalar_path(self):
        """A cached batch step must not outlive its registration."""
        functions = TestBatchExternals()._registry()
        program = parse_program("n(X), n(Y), D = $gap(X, Y) -> d(X, Y, D).")
        engine = Engine(program, Database([("n", (1,)), ("n", (3,))]),
                        functions=functions)
        engine.run()
        assert (1, 3, 2.0) in engine.query("d")
        functions.register("gap", lambda a, b: 0.0)
        engine.database.add("n", (9,))
        delta = engine._apply_rule(program.rules[0], None, None)
        assert {values[2] for _, values in delta} == {0.0}


class TestFamilyLinkParity:
    """Algorithm 7 over a generated extract: the blocked family-link
    rules stay vectorized through ``$link_probability`` and derive the
    compiled path's facts in the compiled path's order."""

    @pytest.fixture(scope="class")
    def engines(self):
        graph, _truth = generate_company_graph(
            CompanySpec(persons=70, companies=30, seed=13)
        )
        pipeline = ReasoningPipeline(
            graph, PipelineConfig(first_level_clusters=1, use_embeddings=False)
        )
        pipeline._inject_block_facts()
        program = pipeline.kg.program(
            ["input_mapping", "family_links", "link_creation", "output_mapping"]
        )

        def run(**kwargs):
            engine = Engine(
                program,
                pipeline.kg.extensional.copy(),
                functions=pipeline.kg.functions,
                **kwargs,
            )
            engine.run()
            return engine

        return run(), run(vectorize=False), run(plan=False)

    def test_same_facts_same_order_same_firings(self, engines):
        vec, cmp, interp = engines
        assert vec.query("candidate")
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
        # textual order permutes the input mapping's joins, not the links
        assert vec.query("candidate") == interp.query("candidate")
        assert set(vec.database.all_facts()) == set(interp.database.all_facts())
        assert (
            vec.stats.rule_firings
            == cmp.stats.rule_firings
            == interp.stats.rule_firings
        )
        assert (
            vec.stats.facts_derived
            == cmp.stats.facts_derived
            == interp.stats.facts_derived
        )

    def test_family_rules_run_vectorized_end_to_end(self, engines):
        vec, _, _ = engines
        assert vec._vector_disabled == set()
        family = {
            key: rule for key, rule in _vector_rules(vec).items()
            if key[0].startswith("fl_")
        }
        assert len(family) == 9  # 3 classes x (round 0 + two node_type seeds)
        for rule in family.values():
            assert rule.cut is None
            rows, distinct = rule.external
            assert rows >= distinct > 0


class TestAggregateParity:
    """Aggregate rules vectorize their join prefix, then cut to a compiled
    tail sharing the engine's accumulator state — firing counts and
    monotone convergence must match the all-compiled run exactly."""

    FACTS = [
        ("contribution", (g, z, w / 8.0))
        for g in range(3)
        for z in range(4)
        for w in (1, 3, 5)
    ]

    @pytest.mark.parametrize("aggregate", ["msum", "mcount", "mmax", "mmin", "mprod"])
    def test_grouped_aggregate(self, aggregate):
        spec = "W" if aggregate == "mcount" else "W, <Z>"
        if aggregate == "mcount":
            spec = "<Z>"
        program = f"contribution(G, Z, W), T = {aggregate}({spec}) -> total(G, T)."
        _assert_three_way_identity(program, self.FACTS)

    def test_recursive_msum_with_join(self):
        # the paper's company-control shape: aggregate over a recursive join
        program = """
        own(X, Y, W) -> share(X, Y, W).
        ctrl(X, Z), own(Z, Y, W) -> share_via(X, Y, Z, W).
        share(X, Y, W), T = msum(W, <Y>), T > 0.5 -> ctrl(X, Y).
        share_via(X, Y, Z, W), T = msum(W, <Z>), T > 0.5 -> ctrl(X, Y).
        """
        facts = [
            ("own", (f"c{i}", f"c{j}", 0.3))
            for i in range(5)
            for j in range(i + 1, min(i + 4, 6))
        ]
        vec, _ = _assert_three_way_identity(program, facts)
        # the msum rules are supported via the cut/tail path, not rejected
        assert vec._vector_fallbacks == {}

    def test_stratified_negation(self):
        program = """
        edge(X, Y) -> path(X, Y).
        path(X, Z), edge(Z, Y) -> path(X, Y).
        edge(X, Y), not path(Y, X) -> oneway(X, Y).
        node(X), not path(X, X) -> acyclic(X).
        """
        facts = [("edge", (1, 2)), ("edge", (2, 3)), ("edge", (3, 1)),
                 ("edge", (4, 5))] + [("node", (n,)) for n in range(1, 6)]
        vec, _ = _assert_three_way_identity(program, facts)
        assert vec._vector_fallbacks == {}


class TestComparisonsAndAssignments:
    def test_mixed_numeric_comparisons(self):
        program = """
        own(X, Y, W), W >= 0.5 -> major(X, Y).
        own(X, Y, W), W < 0.5, W != 0.1 -> minor(X, Y).
        own(X, Y, W), own(Y, Z, V), W > V -> decreasing(X, Z).
        """
        facts = [("own", ("a", "b", 0.7)), ("own", ("b", "c", 0.5)),
                 ("own", ("c", "d", 0.1)), ("own", ("a", "d", 1))]
        _assert_three_way_identity(program, facts)

    def test_arithmetic_assignment(self):
        program = "own(X, Y, W), V = W * 2.0 - 0.1 -> scaled(X, Y, V)."
        facts = [("own", ("a", "b", 0.25)), ("own", ("b", "c", 0.5))]
        _assert_three_way_identity(program, facts)

    def test_repeated_variables_and_constants(self):
        program = """
        edge(X, X) -> loop(X).
        edge(X, Y), edge(Y, "hub") -> spoke(X).
        """
        facts = [("edge", (1, 1)), ("edge", (1, "hub")), ("edge", (2, 1)),
                 ("edge", ("hub", "hub"))]
        _assert_three_way_identity(program, facts)


class TestLoweringFallbacks:
    """Rules the lowering cannot express fall back per (rule, seed) with a
    recorded reason — never a wrong answer."""

    def test_complex_seed_occurrence_falls_back(self):
        # recursion through ``tagged`` makes the semi-naive rounds seed
        # the complex-term atom directly — those (rule, seed) keys cannot
        # be lowered and must fall back with a recorded reason
        program = """
        mark(X) -> tagged(X, #tag(X)).
        tagged(X, Y) -> tagged(Y, X).
        mark(X), tagged(X, #tag(X)) -> hit(X), tagged(X, X).
        """
        facts = [("mark", ("a",)), ("mark", ("b",))]
        vec, _ = _assert_three_way_identity(program, facts)
        assert vec._vector_fallbacks
        assert any(
            "complex" in reason or "join" in reason
            for reason in vec._vector_fallbacks.values()
        )

    def test_modulo_expression_runs_in_the_per_row_tail(self):
        # '%' is unreachable from the surface syntax (it opens a comment)
        # but programmatic rules can build the Expr; the lowering cuts to
        # the compiled per-row tail right before the assignment
        from repro.datalog.atoms import Assignment, Atom
        from repro.datalog.rules import Program, Rule
        from repro.datalog.terms import Constant, Expr, Variable

        rule = Rule(
            body=(
                Atom("num", (Variable("X"),)),
                Assignment(Variable("Y"), Expr("%", (Variable("X"), Constant(3)))),
            ),
            head=(Atom("residue", (Variable("X"), Variable("Y"))),),
        )
        facts = [("num", (n,)) for n in range(7)]
        vec = Engine(Program(rules=[rule]), Database(list(facts)))
        vec.run()
        cmp = Engine(Program(rules=[rule]), Database(list(facts)), vectorize=False)
        cmp.run()
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
        assert sorted(vec.query("residue")) == [(n, n % 3) for n in range(7)]

    def test_skolem_head_still_exact(self):
        # Skolem heads cannot be emitted vectorized; the rule runs its
        # (empty) join prefix vectorized and the head through the
        # compiled tail, reproducing deterministic skolemization
        program = """
        mark(X) -> owner(X, #inv(X)).
        owner(X, Y), mark(X) -> pair(X, Y).
        """
        facts = [("mark", (1,)), ("mark", (2,))]
        _assert_three_way_identity(program, facts)

    def test_existential_head_still_exact(self):
        program = "company(X) -> controller(Z, X)."
        facts = [("company", ("a",)), ("company", ("b",))]
        _assert_three_way_identity(program, facts)


class TestRuntimeFallbacks:
    """Value-dependent hazards surface mid-execution: the rule key is
    disabled permanently and the compiled oracle takes over, on the
    unchanged database state."""

    def test_unsafe_integers_disable_ordering_rule(self):
        big = 2**53 + 1  # not exactly representable in float64
        program = "val(X), X > 1 -> huge(X)."
        facts = [("val", (big,)), ("val", (2,)), ("val", (0,))]
        vec, _ = _assert_three_way_identity(program, facts)
        assert vec._vector_disabled
        assert any(
            "unsafe" in r or "float" in r for r in vec._vector_fallbacks.values()
        )

    def test_nan_head_value_disables_rule(self):
        program = "val(X), Y = X * 1.0 -> img(Y)."
        nan = float("nan")
        engine = _fixpoint(program, [("val", (nan,)), ("val", (2.0,))])
        assert engine._vector_disabled
        derived = engine.query("img")
        assert sorted(v for (v,) in derived if not math.isnan(v)) == [2.0]
        assert sum(1 for (v,) in derived if math.isnan(v)) == 1

    def test_results_identical_after_runtime_fallback(self):
        big = 2**60
        program = """
        val(X), X > 1 -> huge(X).
        huge(X), val(Y), X != Y -> pair(X, Y).
        """
        facts = [("val", (big,)), ("val", (5,)), ("val", (1,))]
        vec, cmp = _assert_three_way_identity(program, facts)
        assert vec._vector_disabled  # first rule fell back at runtime
        assert set(vec.query("pair")) == set(cmp.query("pair"))


class TestExplainBackendAttribute:
    """EXPLAIN spans name the backend per (rule, seed occurrence)."""

    def _plan_spans(self, engine_tracer):
        spans = []
        for span in engine_tracer.root.walk():
            if span.name.startswith("plan:"):
                spans.append(span)
        return spans

    def test_vectorized_rules_are_labelled(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        engine = Engine(
            parse_program("edge(X, Y), edge(Y, Z) -> hop(X, Z)."),
            Database([("edge", (1, 2)), ("edge", (2, 3))]),
            tracer=tracer,
        )
        engine.run()
        backends = {s.attributes.get("backend") for s in self._plan_spans(tracer)}
        assert backends == {"vectorized"}

    def test_fallback_rules_carry_reason(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        engine = Engine(
            parse_program(
                """
                mark(X) -> tagged(X, #tag(X)).
                tagged(X, Y) -> tagged(Y, X).
                mark(X), tagged(X, #tag(X)) -> hit(X), tagged(X, X).
                """
            ),
            Database([("mark", ("a",))]),
            tracer=tracer,
        )
        engine.run()
        spans = self._plan_spans(tracer)
        compiled_spans = [
            s for s in spans if s.attributes.get("backend") == "compiled"
        ]
        assert compiled_spans  # the complex-seed occurrences fell back
        assert any(s.attributes.get("vector_fallback") for s in compiled_spans)

    def test_no_vectorize_engine_reports_compiled(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        engine = Engine(
            parse_program("edge(X, Y) -> path(X, Y)."),
            Database([("edge", (1, 2))]),
            tracer=tracer,
            vectorize=False,
        )
        engine.run()
        backends = {s.attributes.get("backend") for s in self._plan_spans(tracer)}
        assert backends == {"compiled"}


class TestHypothesisOracle:
    """Random recursive/aggregate/negation/Skolem programs: the vectorized
    fixpoint is the compiled fixpoint, insertion order and firings
    included; both match the interpreted fixpoint as a set."""

    @given(recursive_aggregate_programs())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_equals_compiled_equals_interpreted(self, case):
        program_text, facts = case
        _assert_three_way_identity(program_text, facts)

    @given(recursive_aggregate_programs())
    @settings(max_examples=25, deadline=None)
    def test_fallbacks_never_change_results(self, case):
        # whatever subset of rules fell back, the union of backends still
        # reproduces the oracle database exactly
        program_text, facts = case
        vec = _fixpoint(program_text, facts)
        cmp = _fixpoint(program_text, facts, vectorize=False)
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
