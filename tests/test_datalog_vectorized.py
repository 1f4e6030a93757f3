"""Bit-identity oracles for the vectorized (batch columnar) backend.

The vectorized executor must be invisible except for speed: on every
program it either produces the *same insertion sequence* of facts and
the same firing counts as the interpreter run in the plan's order, or
it falls back to that interpreter (per rule at lowering time, per
engine key at runtime).  These tests pin three configurations against
each other:

* ``Engine(...)``                 — vectorized (the default),
* ``Engine(..., vectorize=False)``— the interpreter in plan order, the
  oracle,
* ``Engine(..., plan=False)``     — the interpreter in textual order.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.datalog import Database, Engine, FunctionRegistry, parse_program, vectorized
from repro.datalog.vectorized import VectorRuntimeFallback
from repro.graph.relational import to_facts
from repro.ownership import close_link_pairs
from repro.telemetry import Tracer
from tests.test_datalog_properties import recursive_aggregate_programs


def _fixpoint(program, facts, **kwargs):
    if isinstance(program, str):
        program = parse_program(program)
    engine = Engine(program, Database(list(facts)), **kwargs)
    engine.run()
    return engine


#: morsel sizes the oracles re-run the vectorized engine under: single
#: rows, slices that split every join, and one that splits only some
MORSELS = (1, 2, 3, 7, 64)


@contextmanager
def _morsel(size):
    """The vectorized executor streaming slices of ``size`` rows."""
    saved = vectorized.MORSEL
    vectorized.MORSEL = size
    try:
        yield
    finally:
        vectorized.MORSEL = saved


def _aggregate_totals(engine):
    # in state order; a key holds id(rule), which differs across parses
    return [state.total for state in engine._aggregate_states.values()]


def _assert_same_run(engine, reference):
    """The same derived-fact sequence — values of the same types, so
    ``1`` is not ``1.0`` — counters and aggregate totals."""
    facts = list(engine.database.all_facts())
    assert facts == list(reference.database.all_facts())
    assert repr(facts) == repr(list(reference.database.all_facts()))
    assert engine.stats.rule_firings == reference.stats.rule_firings
    assert engine.stats.facts_derived == reference.stats.facts_derived
    assert _aggregate_totals(engine) == _aggregate_totals(reference)


def _assert_morsels_invisible(program, facts, reference, **kwargs):
    """The vectorized run under every size in MORSELS equals
    ``reference`` (a run of the same parsed ``program``)."""
    for size in MORSELS:
        with _morsel(size):
            _assert_same_run(_fixpoint(program, facts, **kwargs), reference)


def _assert_three_way_identity(program_text, facts):
    """Vectorized == the interpreter in plan order bit-for-bit, under
    every morsel size too; both == textual order as sets."""
    # parse once: existential nulls are skolemized per rule *instance*,
    # so cross-engine identity needs the same Rule objects
    program = parse_program(program_text)
    vec = _fixpoint(program, facts)
    cmp = _fixpoint(program, facts, vectorize=False)
    interp = _fixpoint(program, facts, plan=False)
    _assert_same_run(vec, cmp)
    assert set(vec.database.all_facts()) == set(interp.database.all_facts())
    _assert_morsels_invisible(program, facts, cmp)
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

    def test_vectorize_false_runs_the_interpreter(self):
        engine = _fixpoint(
            "edge(X, Y) -> path(X, Y).", [("edge", (1, 2))], vectorize=False
        )
        assert not engine.vectorize_enabled
        assert engine._vector_cache == {} and engine._plans
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
        textual = _paper_engine(graph, body, families=False, plan=False)
        assert set(vec.database.all_facts()) == set(textual.database.all_facts())
        # the close-link join rules must actually run vectorized
        assert vec._vector_fallbacks == {}
        assert vec._vector_disabled == set()
        self._assert_morsels_invisible(graph, body, False, cmp)

    def test_family_control_superdense(self):
        graph, _truth = density_scenario("superdense", 60, seed=7)
        body = family_control_program(0.5)
        vec = _paper_engine(graph, body, families=True)
        cmp = _paper_engine(graph, body, families=True, vectorize=False)
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
        assert vec.stats.rule_firings == cmp.stats.rule_firings
        textual = _paper_engine(graph, body, families=True, plan=False)
        assert set(vec.database.all_facts()) == set(textual.database.all_facts())
        assert vec._vector_fallbacks == {}
        assert vec._vector_disabled == set()
        self._assert_morsels_invisible(graph, body, True, cmp)

    @staticmethod
    def _assert_morsels_invisible(graph, body, families, cmp):
        for size in MORSELS:
            with _morsel(size):
                vec = _paper_engine(graph, body, families=families)
            _assert_same_run(vec, cmp)
            assert vec._vector_disabled == set()


def _vector_rules(engine):
    """label -> VectorizedRule for every (rule, seed) lowered to batch."""
    labels = {id(rule): rule.label for rule in engine.program.rules}
    return {
        (labels[rule_id], seed): entry[1]
        for (rule_id, seed), entry in engine._vector_cache.items()
        if entry[1] is not None
    }


def _spans(tracer, prefix):
    return [s for s in tracer.root.walk() if s.name.startswith(prefix)]


class TestBatchExternals:
    """An external with a batch form is one columnar step; the
    interpreter calls the scalar form and stays the oracle."""

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

    def test_any_morsel_size_scores_the_same(self):
        program = parse_program(self.PROGRAM)
        cmp = _fixpoint(program, self.FACTS, functions=self._registry(), vectorize=False)
        _assert_morsels_invisible(
            program, self.FACTS, cmp, functions=self._registry()
        )

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
        before = engine.database.count("d")
        new = engine._apply_rule(program.rules[0], None, None)
        delta = engine.query("d")[before:]
        assert len(delta) == new > 0
        assert {values[2] for values in delta} == {0.0}


class TestFamilyLinkParity:
    """Algorithm 7 over a generated extract: the blocked family-link
    rules stay vectorized through ``$link_probability`` and derive the
    interpreter's facts in the interpreter's order."""

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

        streamed = {}
        for size in MORSELS:
            with _morsel(size):
                streamed[size] = run()
        return run(), run(vectorize=False), run(plan=False), streamed

    def test_same_facts_same_order_same_firings(self, engines):
        vec, cmp, interp, _ = engines
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

    def test_any_morsel_size_derives_the_same_links(self, engines):
        _, cmp, _, streamed = engines
        for size, vec in streamed.items():
            _assert_same_run(vec, cmp)
            family = [
                rule for (label, _), rule in _vector_rules(vec).items()
                if label.startswith("fl_")
            ]
            assert len(family) == 3 and vec._vector_disabled == set()
            for rule in family:
                assert rule.cut is None
                assert 1 <= rule.streamed[1] <= size

    def test_family_rules_run_vectorized_end_to_end(self, engines):
        vec, _, _, _ = engines
        assert vec._vector_disabled == set()
        family = {
            key: rule for key, rule in _vector_rules(vec).items()
            if key[0].startswith("fl_")
        }
        # one full application per class: the input mapping's node_type
        # facts come from exit rules, so they seed no second round
        assert len(family) == 3
        assert {seed for _, seed in family} == {None}
        for rule in family.values():
            assert rule.cut is None
            rows, distinct = rule.external
            assert rows >= distinct > 0


class TestMorsels:
    """A join streams its expansion in slices of at most MORSEL rows,
    each run through the rest of the rule before the next is made."""

    def test_no_table_and_no_batch_call_outgrows_a_morsel(self, monkeypatch):
        monkeypatch.setattr(vectorized, "MORSEL", 4)
        calls = []
        # hub 0 alone matches 11 edges: one probe row split over slices;
        # the recursive path rule's deltas outgrow a morsel as well
        program = parse_program("""
        @far hub(X), edge(X, Y), D = $gap(X, Y), D > 1.0 -> far(X, Y).
        edge(X, Y) -> path(X, Y).
        path(X, Z), edge(Z, Y) -> path(X, Y).
        """)
        facts = (
            [("hub", (0,)), ("hub", (100,))]
            + [("edge", (0, j)) for j in range(1, 12)]
            + [("edge", (j, j + 1)) for j in range(1, 11)]
            + [("edge", (100, 102))]
        )
        vec = _fixpoint(
            program, facts, functions=TestBatchExternals()._registry(calls)
        )
        cmp = _fixpoint(
            program, facts, functions=TestBatchExternals()._registry(),
            vectorize=False,
        )
        _assert_same_run(vec, cmp)
        assert calls and max(calls) <= 4 and sum(calls) == 12
        rules = _vector_rules(vec)
        assert vec._vector_disabled == set()
        assert rules[("far", None)].streamed[0] > 3  # 12 rows, 4 at a time
        for rule in rules.values():
            assert 1 <= rule.streamed[1] <= 4

    def test_fallback_in_a_later_morsel_leaves_the_aggregate_untouched(
        self, monkeypatch
    ):
        monkeypatch.setattr(vectorized, "MORSEL", 2)
        # the unsafe integer sits in the last slice: the earlier ones have
        # passed every batch step, the msum fold included, before the
        # comparison refuses it, so the fold must be rolled back
        program = parse_program(
            "val(G, X), w(G, W), X > 1, T = msum(W, <X>) -> total(G, T)."
        )
        facts = (
            [("w", (g, 0.25 * (g + 1))) for g in range(2)]
            + [("val", (n % 2, n)) for n in range(2, 9)]
            + [("val", (1, 2**60))]
        )
        vec = _fixpoint(program, facts)
        cmp = _fixpoint(program, facts, vectorize=False)
        _assert_same_run(vec, cmp)
        ((key, rule),) = [
            (key, entry[1]) for key, entry in vec._vector_cache.items()
        ]
        assert key in vec._vector_disabled
        assert "unsafe" in vec._vector_fallbacks[key]
        assert rule.cut is None and rule.streamed[0] >= 4

    def test_wide_keys_probe_and_negate_like_tuples(self):
        # three bound positions: the build side packs its key through
        # prefix levels, and a probe prefix the relation lacks must miss
        program = """
        t(X, Y, Z), t(Z, Y, X) -> mirrored(X, Y, Z).
        s(X, Y, Z), not t(X, Y, Z) -> fresh(X, Y, Z).
        s(X, Y, Z), t(X, Y, Z) -> both(X, Y, Z).
        s(X, Y, Z), u(X, Y, Z, W) -> weighed(X, W).
        """
        triples = [(a, b, c) for a in range(3) for b in ("p", "q") for c in range(3)]
        facts = (
            [("t", triple) for triple in triples[::2]]
            + [("s", triple) for triple in triples + [(7, "p", 0), (0, "r", 1)]]
            + [("u", triple + (w,)) for triple in triples[1::3] for w in (0.5, 0.25)]
        )
        vec, _ = _assert_three_way_identity(program, facts)
        assert vec._vector_fallbacks == {}
        assert vec.query("fresh") and vec.query("both") and vec.query("weighed")


class TestAggregateParity:
    """Aggregate rules vectorize their join prefix, then cut to a per-row
    tail sharing the engine's accumulator state — firing counts and
    monotone convergence must match the all-interpreted run exactly."""

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


    def test_seed_repeat_check_compares_positions_not_slots(self):
        # the delta seeds ``p("c", X, X)``: X has slot 0 but sits at
        # positions 1 and 2 — comparing values[slot] read the constant
        program = """
        p("c", X, X) -> p("d", X, X).
        e(X) -> p("c", X, X).
        """
        vec, _ = _assert_three_way_identity(program, [("e", (1,)), ("e", (2,))])
        assert ("d", 2, 2) in vec.query("p")


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
        # the per-row tail right before the assignment
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
        # per-row tail, reproducing deterministic skolemization
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
    disabled permanently and the interpreter takes over, on the
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
        return _spans(engine_tracer, "plan:")

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
        interpreted = [
            s for s in spans if s.attributes.get("backend") == "interpreted"
        ]
        assert interpreted  # the complex-seed occurrences fell back
        assert any(s.attributes.get("vector_fallback") for s in interpreted)
        # the interpreter counts the bindings leaving each of its steps
        assert all("actual_rows" in s.attributes for s in interpreted)

    def test_no_vectorize_engine_reports_interpreted(self):
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
        assert backends == {"interpreted"}


class TestReduction:
    """A relation is filtered, projected and de-duplicated (with counts)
    before it is joined whenever a variable its atom binds dies right
    away; firings keep counting bindings, not table rows."""

    FACTS = [("acc", (z, x, w))
             for z, x in [("z", "a"), ("z", "b"), ("y", "a"), ("y", "c")]
             for w in (0.1, 0.25, 0.5)]
    COMMON = "acc(Z, X, W1), acc(Z, Y, W2), W1 >= 0.2, W2 >= 0.2, X != Y -> pair(X, Y)."

    def test_duplicate_counts_keep_firings_exact(self):
        tracer = Tracer()
        vec = _fixpoint(self.COMMON, self.FACTS, tracer=tracer)
        cmp = _fixpoint(self.COMMON, self.FACTS, vectorize=False)
        interp = _fixpoint(self.COMMON, self.FACTS, plan=False)
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
        # (a, b), (b, a) under z and (a, c), (c, a) under y, 2 x 2 weights each
        assert vec.stats.rule_firings == 16
        assert cmp.stats.rule_firings == interp.stats.rule_firings == 16
        (rule,) = _vector_rules(vec).values()
        assert rule.cut is None
        # 12 rows scanned twice; 4 distinct (Z, X) kept each time
        assert rule.reduced == [24, 8]
        # table rows per step: 4 after the first atom and its two pushed
        # filters' positions, 4 joined pairs after X != Y
        assert rule.counts == [4, 4, 8, 8, 4]

    def test_span_attributes_only_on_reduced_rules(self):
        tracer = Tracer()
        _fixpoint(
            self.COMMON + "\npair(X, Y) -> linked(Y, X).", self.FACTS, tracer=tracer
        )
        for prefix in ("rule:", "plan:"):
            reduced, plain = _spans(tracer, prefix)
            assert reduced.attributes["reduced_in"] == 24
            assert reduced.attributes["reduced_out"] == 8
            assert "reduced_in" not in plain.attributes
            assert "reduced_out" not in plain.attributes

    def test_explain_reports_table_rows_for_vectorized_plans(self):
        tracer = Tracer()
        _fixpoint(
            "edge(X, Y), edge(Y, Z) -> hop(X, Z).",
            [("edge", (1, 2)), ("edge", (2, 3)), ("edge", (3, 4))],
            tracer=tracer,
        )
        (plan,) = _spans(tracer, "plan:")
        assert plan.attributes["backend"] == "vectorized"
        assert plan.attributes["actual_rows"] == [3, 2]

    def test_explain_counts_the_per_row_tail_too(self):
        tracer = Tracer()
        # mprod has no column fold: it cuts to the per-row tail
        _fixpoint(
            "own(X, Y, W), W > 0.1, T = mprod(W, <Y>) -> total(X, T).",
            [("own", ("a", "b", 0.5)), ("own", ("a", "c", 0.05)),
             ("own", ("b", "c", 0.3))],
            tracer=tracer,
        )
        (plan,) = _spans(tracer, "plan:")
        assert plan.attributes["cut"] == 2
        assert plan.attributes["actual_rows"] == [3, 2, 2]

    def test_rules_with_a_per_row_tail_are_not_reduced(self):
        # E dies after the atom, but the aggregate reads every binding,
        # per row in the tail (mprod) as in the column fold (msum)
        facts = [("link", (e, "a", "b", 0.5)) for e in range(3)]
        vec, _ = _assert_three_way_identity(
            "link(E, X, Y, W), W > 0.1, T = mprod(W, <Y>) -> total(X, T).", facts
        )
        (rule,) = _vector_rules(vec).values()
        assert rule.cut is not None and rule.reduced is None
        vec, _ = _assert_three_way_identity(
            "link(E, X, Y, W), W > 0.1, T = msum(W, <Y>) -> total(X, T).", facts
        )
        (rule,) = _vector_rules(vec).values()
        assert rule.cut is None and rule.reduced is None

    def test_pushed_comparison_still_falls_back_while_pure(self):
        big = 2**53 + 1
        facts = [("acc", ("z", "a", big)), ("acc", ("z", "b", 0.5)),
                 ("acc", ("z", "a", 0.5))]
        vec, _ = _assert_three_way_identity(self.COMMON, facts)
        assert vec._vector_disabled
        assert set(vec.query("pair")) == {("a", "b"), ("b", "a")}

    def test_pushed_comparison_never_overtakes_one_that_can_raise(self):
        # ("s", 0.1) fails W > 0.5, but ``X > Y`` comes first and must
        # still see it: str > int is an error on every backend
        from repro.datalog.errors import EvaluationError

        facts = [("q", (1,)), ("p", ("s", 0.1)), ("p", (2, 0.9)), ("p", (2, 0.7))]
        for kwargs in ({}, {"vectorize": False}):
            with pytest.raises(EvaluationError):
                _fixpoint("q(Y), p(X, W), X > Y, W > 0.5 -> r(X).", facts, **kwargs)
        # an inequality cannot raise, so the weight filter overtakes it
        vec, _ = _assert_three_way_identity(
            "q(Y), p(X, W), X != Y, W > 0.5 -> r(X).", facts
        )
        (rule,) = _vector_rules(vec).values()
        assert rule._steps[-1] is None and vec.query("r") == [(2,)]

    def test_close_links_pyramid_tables_stay_small(self):
        graph = ownership_pyramid(32, m=3)
        kg = KnowledgeGraph(graph)
        kg.add_rules("map", input_mapping(False))
        kg.add_rules("task", close_link_program(0.2))
        tracer = Tracer()
        vec = kg.reason(tracer=tracer)
        cmp = Engine(kg.program(), to_facts(graph), vectorize=False)
        cmp.run()
        assert vec.stats.rule_firings == cmp.stats.rule_firings
        assert vec._vector_disabled == set()
        ids = dict(vec.query("id_of"))
        assert {
            (ids[x], ids[y]) for x, y, kind in vec.query("candidate")
            if kind == "close_link"
        } == close_link_pairs(graph)
        (span,) = _spans(tracer, "rule:cl_common")
        firings = span.attributes["firings"]
        tables = [
            rows
            for (label, _), rule in _vector_rules(vec).items()
            if label == "cl_common"
            for rows in rule.counts
        ]
        assert firings > 100_000
        assert max(tables) < firings / 20


@st.composite
def reduction_programs(draw):
    """Rule shapes where a variable bound by an atom dies after a filter
    local to that atom, over relations carrying several weights per key
    pair.  ``acc`` and ``link`` are mutually recursive, so every positive
    occurrence gets seeded by a delta."""
    rules = [
        "own(X, Y, W) -> acc(X, Y, W).",
        "link(X, Y), own(Y, Z, W) -> acc(X, Z, W).",
        # both weights die after their own filter (Algorithm 6's shape)
        "acc(Z, X, W1), acc(Z, Y, W2), W1 >= 0.3, W2 >= 0.3, X != Y, Z != X "
        "-> link(X, Y).",
    ]
    optional = [
        # the same variable dying / kept alive by the head
        "acc(X, Y, W), W >= 0.3 -> strong(X, Y).",
        "acc(X, Y, W), W >= 0.3 -> weighed(X, Y, W).",
        # a repeated variable inside the reduced atom: fresh, then bound
        "acc(X, X, W), W > 0.2 -> selfheld(X).",
        "typ(X, K), acc(X, X, W), W > 0.2 -> selfheld_kind(X, K).",
        # a constant in it
        "tag(X, \"a\", W), W >= 0.3 -> tagged(X).",
        "typ(X, \"c\"), tag(X, \"b\", W), acc(X, Y, V), V != W -> mixed(X, Y).",
        # a join key bound by an assignment (float-kind slot)
        "own(X, Y, W), K = W * 2.0, acc(K, Z, V), V >= 0.3, K != Z -> via(X, Z).",
        # every variable of the atom dies
        "acc(A, B, W), typ(X, \"c\") -> some_company(X).",
        # a negation and an assignment reading across the reduced atom
        "acc(X, Y, W), W >= 0.3, not typ(Y, \"p\") -> to_company(X).",
        "typ(X, K), acc(X, Y, W), W < 0.9, N = 1.5 -> marked(X, N).",
        # an empty relation, scanned and probed
        "ghost(X, Y, W), W >= 0.3 -> haunted(X).",
        "typ(X, K), ghost(X, Y, W), W > 0.1 -> haunted_kind(X, K).",
    ]
    rules += [rule for rule in optional if draw(st.booleans())]

    n = draw(st.integers(min_value=1, max_value=5))
    node = st.integers(min_value=0, max_value=n - 1)
    exotic = draw(st.sampled_from(
        [(), (float("nan"),), (1, 0), (2**60, -(2**60)), (float("nan"), 1, 2**60)]
    ))
    # 1.0 and 0.0 equal node ids 1 and 0: each keeps its type
    weight = st.sampled_from((0.25, 0.5, 0.3, 0.1, 0.9, 1.5, 1.0, 0.0) + exotic)
    own = draw(st.lists(st.tuples(node, node, weight), max_size=14))
    tags = draw(st.lists(
        st.tuples(node, st.sampled_from(["a", "b"]), weight), max_size=8
    ))
    kinds = draw(st.lists(st.tuples(node, st.sampled_from(["c", "p"])), max_size=5))
    facts = (
        [("own", fact) for fact in own]
        + [("tag", fact) for fact in tags]
        + [("typ", fact) for fact in kinds]
    )
    return "\n".join(rules), facts


class TestHypothesisOracle:
    """Random recursive/aggregate/negation/Skolem programs: the vectorized
    fixpoint is the plan-order interpreter's, insertion order and firings
    included; both match the interpreted fixpoint as a set."""

    @given(recursive_aggregate_programs())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_equals_compiled_equals_interpreted(self, case):
        program_text, facts = case
        _assert_three_way_identity(program_text, facts)

    @given(reduction_programs())
    @settings(max_examples=120, deadline=None)
    def test_reduced_relations_change_neither_order_nor_firings(self, case):
        program_text, facts = case
        program = parse_program(program_text)
        vec = _fixpoint(program, facts)
        cmp = _fixpoint(program, facts, vectorize=False)
        interp = _fixpoint(program, facts, plan=False)
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())
        # the planner may start a rule from another atom than the text
        # does, so the unplanned path agrees on the facts, not their order
        assert set(vec.database.all_facts()) == set(interp.database.all_facts())
        assert (
            vec.stats.rule_firings
            == cmp.stats.rule_firings
            == interp.stats.rule_firings
        )
        _assert_morsels_invisible(program, facts, cmp)

    @given(recursive_aggregate_programs())
    @settings(max_examples=25, deadline=None)
    def test_fallbacks_never_change_results(self, case):
        # whatever subset of rules fell back, the union of backends still
        # reproduces the oracle database exactly
        program_text, facts = case
        vec = _fixpoint(program_text, facts)
        cmp = _fixpoint(program_text, facts, vectorize=False)
        assert list(vec.database.all_facts()) == list(cmp.database.all_facts())


@st.composite
def columnar_head_programs(draw):
    """Rules that used to leave the batch backend for a per-row tail:
    Skolem assignments and heads (nested ones too), existential heads —
    a sliced rule's nulls are keyed by its origin — and monotone
    aggregates with contributor keys, recursive ones included.  ``edge``
    only runs from a lower to a higher node, so the recursion over
    products of weights is finite; the weights mix magnitudes, so an
    ``msum`` total depends on the order its contributions arrive in."""
    rules = [
        "edge(X, Y, W) -> hop(X, Y, W).",
        "hop(X, Z, W1), edge(Z, Y, W2), V = W1 * W2 -> hop(X, Y, V).",
    ]
    optional = [
        # Skolem assignment, Skolem head terms, a nested one
        "edge(X, Y, W), N = #node(X) -> named(N, X).",
        "hop(X, Y, W) -> via(#pair(X, Y), W).",
        "mark(X) -> tagged(#t(#node(X), \"k\"), X).",
        "named(N, X), hop(X, Y, W), N2 = #node(Y) -> step(N, N2).",
        # existential heads: one null, two heads sharing it, a chain
        "mark(X) -> owner(Z, X).",
        "hop(X, Y, W), mark(X) -> link(E, X, Y), typed(E, \"hop\").",
        "owner(Z, X), edge(X, Y, W) -> owner2(Z, Y, E).",
        # monotone aggregates with contributor keys
        "hop(X, Y, W), T = msum(W, <X>) -> into(Y, T).",
        "hop(X, Z, W1), edge(Z, Y, W2), T = msum(W1 * W2, <Z>), T > 0.5 "
        "-> strong(X, Y).",
        "hop(X, Y, W), T = mcount(<Y>) -> fanout(X, T).",
        "hop(X, Y, W), T = mmax(W, <Y>) -> best(X, T).",
        "hop(X, Y, W), T = mmin(W, <X, Y>) -> least(T).",
        # the paper's control shape: a recursive msum feeding itself
        "mark(X) -> ctrl(X, X).",
        "ctrl(X, Z), edge(Z, Y, W), T = msum(W, <Z>), T > 0.5 -> ctrl(X, Y).",
        # an aggregate whose total goes on into a Skolem head
        "edge(X, Y, W), T = msum(W, <X>) -> weighed(#w(Y), T).",
    ]
    rules += [rule for rule in optional if draw(st.booleans())]
    n = draw(st.integers(min_value=2, max_value=6))
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 2), st.integers(min_value=1, max_value=n - 1)
    ).filter(lambda xy: xy[0] < xy[1])
    # 1e16 + 1.0 + 1.0 and 1.0 + 1.0 + 1e16 are different floats; an int
    # weight sends the float folds to the interpreter at run time; 1.0
    # equals node 1 and -0.0 equals node 0, and both stay floats
    exotic = draw(st.sampled_from([(), (), (2,), (1.0,), (-1e16,), (-0.0,)]))
    weight = st.sampled_from((0.1, 0.25, 0.5, 0.75, 1.5, 2.5, 1e16) + exotic)
    edges = draw(st.lists(st.tuples(pair, weight), max_size=12))
    marks = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))
    facts = [("edge", (x, y, w)) for (x, y), w in edges] + [
        ("mark", (m,)) for m in marks
    ]
    return "\n".join(rules), facts


class TestColumnarHeads:
    """Skolem values, labelled nulls and monotone aggregates are minted
    and folded in columns, to exactly the per-row paths' values, order
    and accumulator state."""

    @given(columnar_head_programs())
    @settings(max_examples=80, deadline=None)
    def test_vectorized_equals_compiled_fact_for_fact(self, case):
        program_text, facts = case
        program = parse_program(program_text)
        vec = _fixpoint(program, facts)
        cmp = _fixpoint(program, facts, vectorize=False)
        _assert_same_run(vec, cmp)
        interp = _fixpoint(program, facts, plan=False)
        assert set(vec.database.all_facts()) == set(interp.database.all_facts())
        _assert_morsels_invisible(program, facts, cmp)

    @given(columnar_head_programs())
    @settings(max_examples=25, deadline=None)
    def test_every_rule_stays_columnar_on_float_weights(self, case):
        program_text, facts = case
        weights = [values[2] for _, values in facts if len(values) == 3]
        if any(type(weight) is int for weight in weights):
            return  # an int weight: the float folds run per row
        vec = _fixpoint(program_text, facts)
        assert vec._vector_disabled == set() and vec._vector_fallbacks == {}
        for rule in _vector_rules(vec).values():
            assert rule.cut is None

    def test_a_weight_equal_to_a_node_id_keeps_its_type_in_columns(self):
        # node 1 and weight 1.0 share a class but not a code: the Skolem
        # values, nulls and msum folds over them stay columnar and derive
        # the interpreter's facts, types and all
        program = parse_program("\n".join([
            "edge(X, Y, W) -> hop(X, Y, W).",
            "hop(X, Z, W1), edge(Z, Y, W2), V = W1 * W2 -> hop(X, Y, V).",
            "edge(X, Y, W), N = #node(X) -> named(N, X).",
            "hop(X, Y, W) -> via(#pair(X, Y), W).",
            "hop(X, Y, W), T = msum(W, <X>) -> into(Y, T).",
            "hop(X, Y, W), mark(X) -> link(E, X, Y), typed(E, W).",
            "hop(X, Y, W), Y == W -> loop(X, Y).",
        ]))
        facts = [("edge", (0, 1, 1.0)), ("edge", (1, 2, 1.0)), ("edge", (0, 2, 0.5)),
                 ("mark", (1,)), ("mark", (1.0,))]
        vec = _fixpoint(program, facts)
        cmp = _fixpoint(program, facts, vectorize=False)
        _assert_same_run(vec, cmp)
        assert vec._vector_disabled == set() and vec._vector_fallbacks == {}
        assert all(rule.cut is None for rule in _vector_rules(vec).values())
        assert vec.query("loop") == [(0, 1)]
        assert [type(w) for _, _, w in vec.query("hop")] == [float] * 4
        assert vec.query("mark") == [(1,)] and type(vec.query("mark")[0][0]) is int

    def test_the_paper_mapping_and_link_rules_mint_in_columns(self):
        graph, _truth = generate_company_graph(CompanySpec(persons=40, companies=30, seed=5))
        pipeline = ReasoningPipeline(
            graph, PipelineConfig(first_level_clusters=1, use_embeddings=False)
        )
        pipeline._inject_block_facts()
        program = pipeline.kg.program()
        runs = [
            Engine(program, pipeline.kg.extensional.copy(),
                   functions=pipeline.kg.functions, **options)
            for options in ({}, {"vectorize": False})
        ]
        for engine in runs:
            engine.run()
        vec, cmp = runs
        _assert_same_run(vec, cmp)
        assert vec._vector_disabled == set() and vec._vector_fallbacks == {}
        cuts = {label: rule.cut for (label, _), rule in _vector_rules(vec).items()}
        assert {"map_person", "map_own_company", "mk_link", "ctrl_step", "acc_step"} <= set(
            cuts
        )
        assert set(cuts.values()) == {None}, cuts

    def test_msum_adds_in_emission_order(self):
        # 1.0 + 1e16 + 1.0 - 1e16 is 0.0 left to right; any other order
        # (pairwise, sorted, 1.0 + 1.0 first) gives 2.0 or -... somewhere
        program = "c(G, Z, W), T = msum(W, <Z>) -> total(G, T)."
        weights = [1.0, 1e16, 1.0, -1e16]
        facts = [("c", ("g", z, w)) for z, w in enumerate(weights)]
        vec, cmp = _assert_three_way_identity(program, facts)
        running, expected = None, []
        for w in weights:
            running = w if running is None else running + w
            expected.append(running)
        assert [t for _, t in vec.query("total")] == list(dict.fromkeys(expected))
        assert _aggregate_totals(vec) == [0.0]
        (rule,) = _vector_rules(vec).values()
        assert rule.cut is None

    def test_a_contributor_counts_once_at_its_best_value(self):
        # Z = 1 contributes 0.25, then 0.75 (improves: +0.5), then 0.5
        # (no improvement, pruned): the per-row accumulator's semantics
        program = "c(G, Z, W), T = msum(W, <Z>) -> total(G, T)."
        facts = [("c", ("g", 1, 0.25)), ("c", ("g", 2, 0.5)),
                 ("c", ("g", 1, 0.75)), ("c", ("g", 1, 0.5))]
        vec, _ = _assert_three_way_identity(program, facts)
        assert [t for _, t in vec.query("total")] == [0.25, 0.75, 1.25]
        assert vec.stats.rule_firings == 3

    @pytest.mark.parametrize("after_fold", [False, True])
    def test_a_batch_fallback_in_a_later_round_keeps_the_totals(self, after_fold):
        """The batch form refuses from its second call on — a later
        semi-naive round of the aggregate rule.  Placed after the fold,
        the refusal must roll the fold back: no contribution lost or
        counted twice when the interpreter re-runs the round."""
        calls = []

        def keep(value):
            return value

        def keep_batch(values, args):
            (column,) = args
            calls.append(len(column))
            if len(calls) > 1:
                raise VectorRuntimeFallback("refused in a later round")
            if column.dtype == np.float64:  # T: a float column
                return column
            return np.asarray([values[code] for code in column.tolist()])

        functions = FunctionRegistry()
        functions.register("keep", keep, batch=keep_batch)
        if after_fold:
            step = ("ctrl(X, Z), own(Z, Y, W), T = msum(W, <Z>), "
                    "K = $keep(T), K > 0.5 -> ctrl(X, Y).")
        else:
            step = ("ctrl(X, Z), own(Z, Y, W), V = $keep(W), "
                    "T = msum(V, <Z>), T > 0.5 -> ctrl(X, Y).")
        program = parse_program("node(X) -> ctrl(X, X).\n" + step)
        facts = [("node", (name,)) for name in "pabcde"] + [
            ("own", edge) for edge in [
                ("p", "a", 0.6), ("p", "b", 0.3), ("a", "b", 0.3),
                ("b", "c", 0.51), ("c", "d", 0.9), ("d", "e", 0.2),
                ("c", "e", 0.4),
            ]
        ]
        vec = _fixpoint(program, facts, functions=functions)
        cmp = _fixpoint(program, facts, functions=functions, vectorize=False)
        _assert_same_run(vec, cmp)
        assert len(calls) >= 2
        assert set(vec._vector_fallbacks.values()) == {"refused in a later round"}
        assert ("p", "e") in vec.query("ctrl")


def _half(value):
    return value / 2


#: one rule per construct the batch backend leaves to the per-row tail,
#: each after the join of reach and edge, each deriving reach again so
#: the tail runs inside the recursive stratum on every round's delta
PER_ROW_TAILS = {
    "mprod": "reach(X, Z), edge(Z, Y, W), P = mprod(W, <Z>), P > 0.05 "
             "-> reach(X, Y), prod(X, Y, P).",
    "no_contributors": "reach(X, Z), edge(Z, Y, W), S = msum(W), S > 0.3 "
                       "-> reach(X, Y), mass(X, Y, S).",
    "scalar_external": "reach(X, Z), edge(Z, Y, W), D = $half(W), D > 0.1 "
                       "-> reach(X, Y), half(X, Y, D).",
    # '%' opens a comment in the surface syntax: '*' is swapped for it
    "modulo": "reach(X, Z), edge(Z, Y, W), M = Y * 2, M == 0 -> reach(X, Y), even(X, Y).",
    "complex_atom": "reach(X, Z), edge(Z, Y, W), tag(Y, #t(Y)) -> reach(X, Y), tagged(X, Y).",
}


def _with_modulo(rule):
    """``rule`` with the ``M = Y * 2`` of PER_ROW_TAILS read as ``Y % 2``."""
    from repro.datalog.atoms import Assignment
    from repro.datalog.rules import Rule
    from repro.datalog.terms import Expr

    body = tuple(
        Assignment(literal.variable, Expr("%", literal.expression.args))
        if isinstance(literal, Assignment) and literal.variable.name == "M" else literal
        for literal in rule.body
    )
    return Rule(body=body, head=rule.head, label=rule.label)


@st.composite
def per_row_tail_programs(draw):
    """A recursive reach program in which a random non-empty set of the
    :data:`PER_ROW_TAILS` constructs cuts each rule to its tail."""
    constructs = draw(st.lists(
        st.sampled_from(sorted(PER_ROW_TAILS)), min_size=1, max_size=5, unique=True
    ))
    rules = ["edge(X, Y, W) -> reach(X, Y).", "mark(X) -> tag(X, #t(X))."]
    if draw(st.booleans()):
        rules.append("reach(X, Z), edge(Z, Y, W) -> reach(X, Y).")
    rules += [PER_ROW_TAILS[name] for name in constructs]
    program = parse_program("\n".join(rules))
    program.rules = [_with_modulo(rule) for rule in program.rules]
    n = draw(st.integers(min_value=2, max_value=6))
    node = st.integers(min_value=0, max_value=n - 1)
    weight = st.sampled_from((0.1, 0.25, 0.5, 0.75, 0.9))
    edges = draw(st.lists(st.tuples(node, node, weight), min_size=1, max_size=12))
    marks = draw(st.lists(node, max_size=4))
    facts = [("edge", edge) for edge in edges] + [("mark", (m,)) for m in marks]
    return program, constructs, facts


class TestPerRowTails:
    """A rule the batch backend carries only part way hands its
    surviving rows, as bindings, to the interpreter for the rest of its
    plan: the same facts in the same order, the same firings and the
    same accumulator state as the interpreter all the way."""

    @staticmethod
    def _functions():
        functions = FunctionRegistry()
        functions.register("half", _half)
        return functions

    @given(per_row_tail_programs())
    @settings(max_examples=60, deadline=None)
    def test_each_cut_after_a_join_in_recursion_is_exact(self, case):
        program, constructs, facts = case
        functions = self._functions()
        vec = _fixpoint(program, facts, functions=functions)
        cmp = _fixpoint(program, facts, functions=functions, vectorize=False)
        _assert_same_run(vec, cmp)
        textual = _fixpoint(program, facts, functions=functions, plan=False)
        assert set(vec.database.all_facts()) == set(textual.database.all_facts())
        _assert_morsels_invisible(program, facts, cmp, functions=functions)
        # every construct rule was lowered, and every lowering cut
        tails = program.rules[-len(constructs):]
        for rule in tails:
            lowered = [
                entry[1] for (rule_id, _), entry in vec._vector_cache.items()
                if rule_id == id(rule)
            ]
            assert lowered and all(
                entry is not None and entry.cut is not None for entry in lowered
            ), rule
        assert vec._vector_disabled == set()

    def test_a_fallback_after_a_fold_reruns_the_seeds_on_the_interpreter(
        self, monkeypatch
    ):
        # slices of two rows: the msum fold has taken the first slice
        # when the batch form refuses the second, so the fold is rolled
        # back and the interpreter re-runs the same seed from the start;
        # the scalar-only $half after it makes the rule a per-row tail
        monkeypatch.setattr(vectorized, "MORSEL", 2)
        calls = []

        def keep_batch(values, args):
            (column,) = args
            calls.append(len(column))
            if len(calls) > 1:
                raise VectorRuntimeFallback("refused after a fold")
            return column

        functions = self._functions()
        functions.register("keep", lambda value: value, batch=keep_batch)
        program = parse_program(
            "node(X) -> ctrl(X, X).\n"
            "ctrl(X, Z), own(Z, Y, W), T = msum(W, <Z>), K = $keep(T), "
            "D = $half(K), D > 0.25 -> ctrl(X, Y)."
        )
        facts = [("node", (name,)) for name in "pabcde"] + [
            ("own", edge) for edge in [
                ("p", "a", 0.6), ("p", "b", 0.3), ("a", "b", 0.3),
                ("b", "c", 0.51), ("c", "d", 0.9), ("d", "e", 0.2),
                ("c", "e", 0.4),
            ]
        ]
        vec = _fixpoint(program, facts, functions=functions)
        cmp = _fixpoint(program, facts, functions=functions, vectorize=False)
        _assert_same_run(vec, cmp)
        assert calls[0] == 2 and len(calls) >= 2
        step = id(program.rules[1])
        lowered = [entry[1] for key, entry in vec._vector_cache.items() if key[0] == step]
        assert lowered and all(rule.cut is not None for rule in lowered)
        assert set(vec._vector_fallbacks.values()) == {"refused after a fold"}
        assert vec._vector_disabled == set(vec._vector_fallbacks)
        assert ("p", "c") in vec.query("ctrl")
