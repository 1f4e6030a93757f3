"""Tests for the fixpoint engine: recursion, existentials, aggregates, negation."""

import pytest

from repro.datalog import (
    Database,
    Engine,
    EvaluationError,
    FunctionRegistry,
    Null,
    UnknownFunctionError,
    is_null,
    parse_program,
    solve,
)
from repro.telemetry import Tracer


class TestBasicEvaluation:
    def test_transitive_closure(self):
        engine = solve(
            """
            edge(X, Y) -> path(X, Y).
            path(X, Z), edge(Z, Y) -> path(X, Y).
            """,
            [("edge", (1, 2)), ("edge", (2, 3)), ("edge", (3, 4))],
        )
        assert set(engine.query("path")) == {
            (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
        }

    def test_cyclic_closure_terminates(self):
        engine = solve(
            """
            edge(X, Y) -> path(X, Y).
            path(X, Z), edge(Z, Y) -> path(X, Y).
            """,
            [("edge", (1, 2)), ("edge", (2, 1))],
        )
        assert set(engine.query("path")) == {(1, 2), (2, 1), (1, 1), (2, 2)}

    def test_facts_in_program_text(self):
        engine = solve('p("a"). p("b"). p(X) -> q(X).')
        assert set(engine.query("q")) == {("a",), ("b",)}

    def test_join_on_shared_variable(self):
        engine = solve(
            "r(X, Y), s(Y, Z) -> t(X, Z).",
            [("r", (1, 2)), ("r", (1, 3)), ("s", (2, 9)), ("s", (4, 8))],
        )
        assert engine.query("t") == [(1, 9)]

    def test_repeated_variable_in_atom(self):
        engine = solve(
            "p(X, X) -> same(X).",
            [("p", (1, 1)), ("p", (1, 2)), ("p", (3, 3))],
        )
        assert set(engine.query("same")) == {(1,), (3,)}

    def test_constants_in_body_filter(self):
        engine = solve(
            'p(X, "keep") -> q(X).',
            [("p", (1, "keep")), ("p", (2, "drop"))],
        )
        assert engine.query("q") == [(1,)]

    def test_query_with_pattern(self):
        engine = solve("p(X, Y) -> q(X, Y).", [("p", (1, 2)), ("p", (3, 4))])
        assert engine.query("q", {0: 3}) == [(3, 4)]
        assert engine.holds("q", (1, 2))


class TestComparisonsAndArithmetic:
    def test_threshold_filter(self):
        engine = solve(
            "own(X, Y, W), W > 0.5 -> control(X, Y).",
            [("own", ("a", "b", 0.6)), ("own", ("a", "c", 0.4))],
        )
        assert engine.query("control") == [("a", "b")]

    def test_arithmetic_assignment(self):
        engine = solve("p(X, Y), Z = X * Y + 1 -> q(Z).", [("p", (2, 3))])
        assert engine.query("q") == [(7,)]

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            solve("p(X), Z = 1 / X -> q(Z).", [("p", (0,))])

    def test_string_inequality(self):
        engine = solve(
            'p(X), X != "b" -> q(X).',
            [("p", ("a",)), ("p", ("b",))],
        )
        assert engine.query("q") == [("a",)]

    def test_mixed_type_equality_is_false(self):
        engine = solve(
            "p(X), q(Y), X == Y -> r(X).",
            [("p", (1,)), ("q", ("1",))],
        )
        assert engine.query("r") == []


class TestExistentials:
    def test_existential_creates_null(self):
        engine = solve("own(X, Y) -> link(E, X, Y).", [("own", ("a", "b"))])
        facts = engine.query("link")
        assert len(facts) == 1
        assert is_null(facts[0][0])

    def test_null_deterministic_per_frontier(self):
        # deriving the same head twice must not duplicate the fact
        engine = solve(
            """
            own1(X, Y) -> link(E, X, Y).
            own2(X, Y) -> link(E, X, Y).
            """,
            [("own1", ("a", "b"))],
        )
        assert len(engine.query("link")) == 1

    def test_distinct_frontiers_get_distinct_nulls(self):
        engine = solve(
            "own(X, Y) -> link(E, X, Y).",
            [("own", ("a", "b")), ("own", ("a", "c"))],
        )
        nulls = {values[0] for values in engine.query("link")}
        assert len(nulls) == 2

    def test_shared_existential_across_head_atoms(self):
        engine = solve(
            'own(X, Y) -> link(E, X, Y), edge_type(E, "s").',
            [("own", ("a", "b"))],
        )
        link_null = engine.query("link")[0][0]
        type_null = engine.query("edge_type")[0][0]
        assert link_null == type_null

    def test_skolem_in_head(self):
        engine = solve(
            "c(N) -> node(#sk_c(N)).",
            [("c", ("acme",)), ("c", ("acme",))],
        )
        assert len(engine.query("node")) == 1


class TestNegation:
    def test_stratified_negation(self):
        engine = solve(
            """
            p(X) -> q(X).
            u(X), not q(X) -> only_u(X).
            """,
            [("p", (1,)), ("u", (1,)), ("u", (2,))],
        )
        assert engine.query("only_u") == [(2,)]

    def test_negation_sees_derived_facts(self):
        engine = solve(
            """
            a(X) -> b(X).
            c(X), not b(X) -> d(X).
            """,
            [("a", (1,)), ("c", (1,)), ("c", (2,))],
        )
        assert engine.query("d") == [(2,)]


class TestAggregates:
    def test_msum_groups_by_head_vars(self):
        engine = solve(
            "own(X, Y, W), T = msum(W, <X>) -> total(Y, T).",
            [("own", ("a", "c", 0.3)), ("own", ("b", "c", 0.4)), ("own", ("a", "d", 0.5))],
        )
        totals = {}
        for y, t in engine.query("total"):
            totals[y] = max(totals.get(y, 0.0), t)
        assert totals["c"] == pytest.approx(0.7)
        assert totals["d"] == pytest.approx(0.5)

    def test_msum_contributor_counted_once(self):
        # the same contributor arriving twice must not double-count
        engine = solve(
            """
            own_a(Z, W) -> own(Z, W).
            own_b(Z, W) -> own(Z, W).
            own(Z, W), T = msum(W, <Z>) -> total(T).
            """,
            [("own_a", ("z1", 0.4)), ("own_b", ("z1", 0.4))],
        )
        best = max(t for (t,) in engine.query("total"))
        assert best == pytest.approx(0.4)

    def test_msum_takes_max_per_contributor(self):
        # growing contributions replace, not add (monotonic semantics)
        engine = solve(
            "c(Z, W), T = msum(W, <Z>) -> total(T).",
            [("c", ("z", 0.2)), ("c", ("z", 0.5)), ("c", ("y", 0.1))],
        )
        best = max(t for (t,) in engine.query("total"))
        assert best == pytest.approx(0.6)

    def test_mcount(self):
        engine = solve(
            "member(G, Z), T = mcount(<Z>) -> size(G, T).",
            [("member", ("g", 1)), ("member", ("g", 2)), ("member", ("h", 3))],
        )
        sizes = {}
        for g, t in engine.query("size"):
            sizes[g] = max(sizes.get(g, 0), t)
        assert sizes == {"g": 2, "h": 1}

    def test_mmax_mmin(self):
        engine = solve(
            """
            v(G, Z, W), T = mmax(W, <Z>) -> top(G, T).
            v(G, Z, W), T = mmin(W, <Z>) -> bottom(G, T).
            """,
            [("v", ("g", 1, 5)), ("v", ("g", 2, 3)), ("v", ("g", 3, 9))],
        )
        assert max(t for _, t in engine.query("top")) == 9
        assert min(t for _, t in engine.query("bottom")) == 3

    def test_mprod(self):
        engine = solve(
            "f(Z, W), T = mprod(W, <Z>) -> product(T).",
            [("f", (1, 2.0)), ("f", (2, 3.0))],
        )
        assert max(t for (t,) in engine.query("product")) == pytest.approx(6.0)

    def test_recursive_control_aggregate(self):
        # the paper's Algorithm 5 pattern: joint control through msum
        engine = solve(
            """
            node(X) -> ctrl(X, X).
            ctrl(X, Z), own(Z, Y, W), T = msum(W, <Z>), T > 0.5 -> ctrl(X, Y).
            """,
            [
                ("node", ("p",)), ("node", ("a",)), ("node", ("b",)), ("node", ("c",)),
                ("own", ("p", "a", 0.6)),
                ("own", ("p", "b", 0.3)), ("own", ("a", "b", 0.3)),
                ("own", ("b", "c", 0.51)),
            ],
        )
        controlled_by_p = {y for x, y in engine.query("ctrl") if x == "p" and y != "p"}
        assert controlled_by_p == {"a", "b", "c"}


class TestExternalFunctions:
    def test_registered_function_called(self):
        functions = FunctionRegistry()
        functions.register("double", lambda v: v * 2)
        engine = solve(
            "p(X), Y = $double(X) -> q(Y).",
            [("p", (21,))],
            functions=functions,
        )
        assert engine.query("q") == [(42,)]

    def test_unregistered_function_raises(self):
        with pytest.raises(UnknownFunctionError):
            solve("p(X), Y = $nope(X) -> q(Y).", [("p", (1,))])


class TestProvenance:
    def test_explain_extensional(self):
        engine = solve("p(X) -> q(X).", [("p", (1,))], provenance=True)
        lines = engine.explain("p", (1,))
        assert "extensional" in lines[0]

    def test_explain_derived(self):
        engine = solve(
            """
            @promote p(X) -> q(X).
            @combine q(X), r(X) -> s(X).
            """,
            [("p", (1,)), ("r", (1,))],
            provenance=True,
        )
        lines = engine.explain("s", (1,))
        assert any("combine" in line for line in lines)
        assert any("promote" in line for line in lines)

    def test_stats_populated(self):
        engine = solve("p(X) -> q(X).", [("p", (1,))])
        assert engine.stats.facts_derived == 1
        assert engine.stats.rule_firings >= 1
        assert engine.stats.strata >= 1


class TestNaiveMode:
    def test_naive_equals_seminaive(self):
        program = """
        edge(X, Y) -> path(X, Y).
        path(X, Z), edge(Z, Y) -> path(X, Y).
        """
        facts = [("edge", (i, i + 1)) for i in range(6)] + [("edge", (5, 0))]
        fast = solve(program, list(facts))
        slow_engine = Engine(
            parse_program(program), Database(list(facts)), seminaive=False
        )
        slow_engine.run()
        assert set(fast.query("path")) == set(slow_engine.query("path"))

    def test_exit_rule_after_the_recursive_rules(self):
        # the exit rules come last in the text but run first; their facts
        # seed no round, and the fixpoint is the naive one
        program = """
        path(X, Z), edge(Z, Y) -> path(X, Y).
        reach(X, Z), share(Z, Y, W), T = msum(W, <Z>), T > 0.5 -> reach(X, Y).
        reach(X, Y), X != Y -> path(X, Y).
        path(X, Y), hub(Y) -> reach(X, Y).
        edge(X, Y) -> path(X, Y), seen(X).
        node(X) -> reach(X, X).
        """
        facts = (
            [("edge", (i, i + 1)) for i in range(4)]
            + [("node", (i,)) for i in range(6)]
            + [("share", (i, 5, 0.3)) for i in range(3)]
            + [("share", (4, 0, 0.6)), ("share", (4, 5, 0.3)), ("hub", (3,))]
        )
        tracer = Tracer()
        fast = Engine(parse_program(program), Database(list(facts)), tracer=tracer)
        fast.run()
        for plan in (True, False):
            slow = Engine(
                parse_program(program), Database(list(facts)), seminaive=False,
                plan=plan,
            )
            slow.run()
            assert set(fast.database.all_facts()) == set(slow.database.all_facts())
        assert (4, 5) in set(fast.query("reach"))
        (stratum,) = [s for s in tracer.root.walk() if s.name.startswith("stratum[")]
        assert stratum.attributes["exit_rules"] == 2
        # round 0 holds what the four other rules derived over every exit
        # fact (3 two-hop paths, reach(4, 0), path(4, 0), reach(1, 3),
        # reach(2, 3)) and none of the 14 exit facts
        assert stratum.attributes["delta_sizes"][0] == 7

    def test_iteration_budget_enforced(self):
        program = parse_program(
            """
            p(X), Y = X + 1 -> p(Y).
            """
        )
        engine = Engine(program, Database([("p", (0,))]), max_iterations=5)
        with pytest.raises(EvaluationError):
            engine.run()
