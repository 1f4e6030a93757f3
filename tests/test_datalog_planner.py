"""Join planner tests.

The contract under test: planning is invisible except for speed — every
planned evaluation must produce the same database, firings and stats as
the textual-order interpreted engine (``plan=False``).
"""

import pytest

from repro.datalog import Database, Engine, parse_program
from repro.datalog.parser import parse_rule
from repro.datalog.planner import (
    JoinPlan,
    order_sensitive_predicates,
    plan_rule,
)


def both_engines(program_text: str, facts, **kwargs):
    planned = Engine(parse_program(program_text), Database(list(facts)), **kwargs)
    planned.run()
    unplanned = Engine(
        parse_program(program_text), Database(list(facts)), plan=False, **kwargs
    )
    unplanned.run()
    return planned, unplanned


def assert_equivalent(program_text: str, facts):
    planned, unplanned = both_engines(program_text, facts)
    assert set(planned.database.all_facts()) == set(unplanned.database.all_facts())
    assert planned.stats.rule_firings == unplanned.stats.rule_firings
    assert planned.stats.facts_derived == unplanned.stats.facts_derived
    return planned


class TestPlanShape:
    def test_small_relation_joins_first(self):
        database = Database(
            [("big", (i, i + 1)) for i in range(200)] + [("small", (3, 4))]
        )
        # warm both candidate indexes so estimates use real distinct counts
        database.index_for("big", (0,))
        rule = parse_rule("big(X, Y), small(Y, Z) -> out(X, Z).")
        plan = plan_rule(rule, None, database)
        assert plan.feasible
        assert [step.rendered for step in plan.steps if step.kind == "atom"] == [
            "small(Y, Z)",
            "big(X, Y)",
        ]

    def test_filters_hoist_to_earliest_bound_point(self):
        database = Database([("a", (1,)), ("b", (1, 2))])
        rule = parse_rule("a(X), b(X, Y), X > 0, Y > 0 -> out(X, Y).")
        plan = plan_rule(rule, None, database, reorder=False)
        kinds = [step.kind for step in plan.steps]
        # X > 0 moves between the atoms; Y > 0 stays after b
        assert kinds == ["atom", "comparison", "atom", "comparison"]
        assert plan.steps[1].rendered == "X > 0"

    def test_atoms_do_not_cross_an_aggregate(self):
        database = Database([("tiny", (1, 1))] + [("huge", (i, i)) for i in range(100)])
        rule = parse_rule(
            "huge(X, W), T = msum(W, <X>), tiny(T, Z) -> out(X, Z)."
        )
        plan = plan_rule(rule, None, database)
        rendered = [step.rendered for step in plan.steps]
        assert rendered.index("huge(X, W)") < rendered.index("T = msum(W, <X>)")
        assert rendered.index("T = msum(W, <X>)") < rendered.index("tiny(T, Z)")

    def test_seed_variables_are_bound_from_the_start(self):
        database = Database([("e", (1, 2)), ("f", (2, 3))])
        rule = parse_rule("e(X, Y), f(Y, Z) -> out(X, Z).")
        plan = plan_rule(rule, 0, database)
        assert plan.seed_index == 0
        (step,) = [s for s in plan.steps if s.kind == "atom"]
        assert step.rendered == "f(Y, Z)"
        assert step.probe_positions == (0,)  # Y is bound by the seed

    def test_unbindable_complex_term_falls_back(self):
        # Y only ever occurs inside the Skolem term, so no join order can
        # evaluate it: the plan must surrender to the interpreted path
        database = Database([("p", (1, "sk"))])
        rule = parse_rule("p(X, #f(Y)), not q(Y) -> out(X).")
        plan = plan_rule(rule, None, database)
        assert not plan.feasible

    def test_stale_on_cardinality_drift(self):
        database = Database([("r", (i,)) for i in range(10)])
        rule = parse_rule("r(X) -> out(X).")
        plan = plan_rule(rule, None, database)
        assert not plan.stale(database)
        # small-count drift is exempt
        for i in range(10, 25):
            database.add("r", (i,))
        assert not plan.stale(database)
        for i in range(25, 100):
            database.add("r", (i,))
        assert plan.stale(database)

    def test_empty_snapshot_goes_stale_once_rows_appear(self):
        database = Database()
        rule = parse_rule("r(X) -> out(X).")
        plan = plan_rule(rule, None, database)
        for i in range(40):
            database.add("r", (i,))
        assert plan.stale(database)

    def test_connected_atom_beats_a_cheaper_cross_product(self):
        # no index on big yet: its default-selectivity estimate (20) is
        # above other's cardinality (5), yet big joins on X and other on
        # nothing — the cross product must wait
        database = Database(
            [("first", (i,)) for i in range(3)]
            + [("big", (i % 3, i)) for i in range(200)]
            + [("other", (i,)) for i in range(5)]
        )
        rule = parse_rule("first(X), other(Z), big(X, Y) -> out(X, Y, Z).")
        plan = plan_rule(rule, None, database)
        assert [step.rendered for step in plan.steps] == [
            "first(X)", "big(X, Y)", "other(Z)",
        ]

    def test_blocked_family_link_rule_joins_blocks_before_the_external(self):
        from repro.core.programs import family_link_program

        persons = [f"p{i}" for i in range(60)]
        database = Database(
            [("node_type", (p, "person")) for p in persons]
            + [("node_type", (f"c{i}", "company")) for i in range(40)]
            + [("block", (0, f"b{i % 20}", p)) for i, p in enumerate(persons)]
            + [("block", (0, f"s{i % 7}", p)) for i, p in enumerate(persons)]
        )
        (rule,) = parse_program(family_link_program(("partner_of",))).rules
        # the full plan and both node_type seeds (body positions 3 and 4),
        # which a program deriving node_type inside the fixpoint still uses
        for seed in (None, 3, 4):
            plan = plan_rule(rule, seed, database)
            assert plan.feasible
            rendered = [step.rendered for step in plan.steps]
            external = rendered.index('P = $link_probability("partner_of", X, Y)')
            atoms = [i for i, step in enumerate(plan.steps) if step.kind == "atom"]
            assert max(atoms) < external, rendered
            assert rendered.index("block(B1, B2, X)") < external
            assert rendered.index("block(B1, B2, Y)") < external
            assert rendered.index("X != Y") < external  # cheap filters still hoist
            # never two node_type scans back to back: that is the
            # all-person-pairs cross product
            kinds = [r.split("(")[0] for r in rendered[:2]]
            assert kinds != ["node_type", "node_type"], rendered

    def test_external_comparison_sinks_below_joinable_atoms(self):
        database = Database(
            [("a", (i,)) for i in range(4)] + [("b", (i, i)) for i in range(4)]
        )
        rule = parse_rule("a(X), $cost(X) > 1, b(X, Y) -> out(X, Y).")
        plan = plan_rule(rule, None, database, reorder=False)
        assert [step.rendered for step in plan.steps] == [
            "a(X)", "b(X, Y)", "$cost(X) > 1",
        ]

    def test_external_runs_before_a_cross_product(self):
        database = Database(
            [("a", (i,)) for i in range(4)] + [("c", (i,)) for i in range(4)]
        )
        rule = parse_rule("a(X), c(Z), P = $cost(X), P > 1 -> out(X, Z).")
        plan = plan_rule(rule, None, database)
        assert [step.rendered for step in plan.steps] == [
            "a(X)", "P = $cost(X)", "P > 1", "c(Z)",
        ]

    def test_plan_describe_renders_estimates(self):
        database = Database([("r", (i,)) for i in range(5)])
        rule = parse_rule("r(X), X > 1 -> out(X).")
        plan = plan_rule(rule, None, database)
        lines = plan.describe()
        assert lines[0].startswith("r(X) [~")
        assert "X > 1" in lines


class TestOrderSensitivity:
    def test_aggregate_bodies_are_sensitive_transitively(self):
        program = parse_program(
            """
            feed(X, Y) -> mid(X, Y).
            mid(X, Y), base(Y, W), T = msum(W, <Y>) -> total(X, T).
            total(X, T) -> report(X, T).
            """
        )
        sensitive = order_sensitive_predicates(program)
        assert {"mid", "base", "feed"} <= sensitive
        # nothing feeds report into an aggregate, so deriving it is free
        assert "report" not in sensitive

    def test_mcount_is_order_insensitive(self):
        program = parse_program(
            "member(G, Z), T = mcount(<Z>) -> size(G, T)."
        )
        assert order_sensitive_predicates(program) == set()


class TestCompiledEquivalence:
    def test_recursive_closure(self):
        edges = [("edge", (i, (i + 1) % 7)) for i in range(7)]
        assert_equivalent(
            "edge(X, Y) -> path(X, Y). path(X, Z), edge(Z, Y) -> path(X, Y).",
            edges,
        )

    def test_constants_and_repeated_variables(self):
        facts = [("t", (1, 1, 2)), ("t", (1, 2, 2)), ("t", (3, 3, 3))]
        assert_equivalent("t(X, X, Y), t(Y, Y, Y) -> loop(X, Y).", facts)
        assert_equivalent('t(1, X, Y) -> one(X, Y).', facts)

    def test_mixed_arity_predicate(self):
        facts = [("link", ("e1", "a", "b")), ("link", ("e2", "a", "b", 0.5))]
        planned = assert_equivalent(
            """
            link(E, X, Y, W) -> weighted(X, Y, W).
            link(E, X, Y) -> plain(X, Y).
            weighted(X, Y, W), link(E, X, Y) -> both(X, Y).
            """,
            facts,
        )
        assert planned.holds("both", ("a", "b"))

    def test_zero_arity_atoms(self):
        assert_equivalent("flag(), p(X) -> out(X).", [("flag", ()), ("p", (1,))])
        assert_equivalent("flag(), p(X) -> out(X).", [("p", (1,))])

    def test_negation(self):
        facts = [("edge", (1, 2)), ("edge", (2, 3)), ("blocked", (2,))]
        assert_equivalent(
            "edge(X, Y), not blocked(Y) -> open_edge(X, Y).", facts
        )

    def test_assignment_and_comparison(self):
        facts = [("n", (i,)) for i in range(6)]
        assert_equivalent(
            "n(X), Y = X * 2 + 1, Y > 4, n(Y) -> odd_double(X, Y).", facts
        )

    def test_assignment_unifies_when_already_bound(self):
        facts = [("pair", (2, 4)), ("pair", (2, 5))]
        assert_equivalent("pair(X, Y), Y = X * 2 -> double(X).", facts)

    def test_skolem_seed_deferral(self):
        # the recursive delta seeds the atom whose second position is a
        # Skolem term: the interpreter's seed match must defer its check
        assert_equivalent(
            """
            mark(X) -> path(X, #tag(X)).
            path(X, Y), edge(Y, Z) -> path(X, Z).
            mark(X), path(X, #tag(X)) -> hit(X).
            """,
            [("mark", (1,)), ("mark", (2,)), ("edge", (1, 2))],
        )

    def test_existential_head_invents_identical_nulls(self):
        # null identity embeds id(rule), so both engines must share the
        # parsed program for the invented nulls to be comparable at all
        program = parse_program("person(X) -> owns(X, C), company(C).")
        planned = Engine(program, Database([("person", ("p1",))]))
        planned.run()
        unplanned = Engine(program, Database([("person", ("p1",))]), plan=False)
        unplanned.run()
        assert set(planned.database.all_facts()) == set(
            unplanned.database.all_facts()
        )

    def test_aggregates_in_recursion(self):
        facts = [("edge", (1, 2, 3)), ("edge", (2, 3, 4)), ("edge", (1, 3, 9))]
        assert_equivalent(
            """
            edge(X, Y, W) -> reach(X, Y, W).
            reach(X, Z, W1), edge(Z, Y, W2), W = W1 + W2 -> reach(X, Y, W).
            reach(X, Y, W), T = msum(W, <Y>) -> mass(X, T).
            """,
            facts,
        )

    def test_external_functions(self):
        from repro.datalog.builtins import FunctionRegistry

        functions = FunctionRegistry()
        functions.register("double", lambda x: x * 2)
        program = "n(X), Y = $double(X) -> out(Y)."
        facts = [("n", (i,)) for i in range(4)]
        planned = Engine(
            parse_program(program), Database(list(facts)), functions=functions
        )
        planned.run()
        unplanned = Engine(
            parse_program(program),
            Database(list(facts)),
            functions=functions,
            plan=False,
        )
        unplanned.run()
        assert set(planned.database.all_facts()) == set(
            unplanned.database.all_facts()
        )

    def test_comparison_on_mixed_types_matches_interpreted(self):
        # builtins.compare: ordering across types is an error, but
        # equality is just False — every backend must preserve it
        facts = [("v", (1,)), ("v", ("one",))]
        assert_equivalent('v(X), X != "one" -> kept(X).', facts)


class TestEngineIntegration:
    def test_plan_false_never_compiles(self):
        engine = Engine(
            parse_program("edge(X, Y) -> path(X, Y)."),
            Database([("edge", (1, 2))]),
            plan=False,
        )
        engine.run()
        assert engine._plans == {} and engine._vector_cache == {}

    def test_provenance_disables_planning(self):
        engine = Engine(
            parse_program("edge(X, Y) -> path(X, Y)."),
            Database([("edge", (1, 2))]),
            provenance=True,
        )
        engine.run()
        assert engine._plans == {} and engine._vector_cache == {}
        assert engine.explain("path", (1, 2))  # provenance recorded as before

    def test_replans_on_growth(self):
        # path is empty when rule 2 is first planned; after the closure
        # explodes the snapshot is stale and the engine re-plans
        edges = [("edge", (i, i + 1)) for i in range(60)]
        engine = Engine(
            parse_program(
                "edge(X, Y) -> path(X, Y). path(X, Z), edge(Z, Y) -> path(X, Y)."
            ),
            Database(edges),
        )
        engine.run()
        assert engine.database.count("path") == 60 * 61 // 2
        assert any(replans > 0 for _plan, replans in engine._plans.values())

    def test_uncompilable_rule_is_cached_as_fallback(self):
        # reachable only through the complex-term safety over-approximation;
        # the interpreted engine cannot run this rule either, so exercise
        # the cache machinery directly instead of running to fixpoint
        program = parse_program("p(X, #f(Y)), not q(Y) -> out(X).")
        engine = Engine(program, Database())
        rule = program.rules[0]
        plan = engine._plan_for(rule, None)
        assert not plan.feasible
        assert engine._vectorized_for(rule, None, plan) is None
        assert engine._vector_cache[(id(rule), None)] == (plan.signature(), None)
        assert engine._vector_fallbacks[(id(rule), None)] == (
            "plan fell back to textual order"
        )
        assert engine._plan_for(rule, None) is plan  # cached, no re-plan
        assert engine._vectorized_for(rule, None, plan) is None

    def test_profile_includes_plan_spans(self):
        from repro.telemetry import Tracer

        tracer = Tracer("test")
        engine = Engine(
            parse_program("edge(X, Y), edge(Y, Z) -> two_hop(X, Z)."),
            Database([("edge", (1, 2)), ("edge", (2, 3))]),
            tracer=tracer,
        )
        engine.run()
        tracer.finish()
        rendered = tracer.render()
        assert "planner" in rendered
        assert "plan:" in rendered
        assert "estimated_rows" in rendered
        assert "actual_rows" in rendered

    def test_naive_mode_follows_the_plans_order(self):
        from repro.telemetry import Tracer

        edges = [("edge", (i, i + 1)) for i in range(5)]
        # textually the three-hop rule starts with the big relation; its
        # plan starts with the one-row start relation instead
        program = (
            "edge(X, Y) -> path(X, Y). path(X, Z), edge(Z, Y) -> path(X, Y). "
            "path(X, Y), start(X) -> from_start(Y)."
        )
        facts = edges + [("start", (0,))]
        naive_planned = Engine(
            parse_program(program), Database(list(facts)), seminaive=False
        )
        naive_planned.run()
        reference = Engine(parse_program(program), Database(list(facts)), plan=False)
        reference.run()
        assert set(naive_planned.database.all_facts()) == set(
            reference.database.all_facts()
        )
        assert naive_planned._plans and naive_planned._vector_cache
        assert naive_planned._vector_fallbacks == {}
        tracer = Tracer("test")
        naive_interpreted = Engine(
            parse_program(program), Database(list(facts)), seminaive=False,
            vectorize=False, tracer=tracer,
        )
        naive_interpreted.run()
        assert set(naive_interpreted.database.all_facts()) == set(
            reference.database.all_facts()
        )
        assert naive_interpreted.stats.rule_firings == naive_planned.stats.rule_firings
        tracer.finish()
        (plan,) = [
            s for s in tracer.root.walk() if s.name.startswith("plan:path(X, Y), start")
        ]
        (rule,) = [
            s for s in tracer.root.walk() if s.name.startswith("rule:path(X, Y), start")
        ]
        assert plan.attributes["backend"] == "interpreted"
        assert plan.attributes["order"][0].startswith("start(X)")
        # each application lets start's one row out, then path(X, Y)
        # probes the index on X: the five paths from 0 leave it
        applications = rule.attributes["applications"]
        assert applications == 2  # naive: a last round finds nothing new
        assert plan.attributes["actual_rows"] == [applications, 5 * applications]

    def test_query_and_stats_survive_planning(self):
        planned, unplanned = both_engines(
            "edge(X, Y), edge(Y, Z), X != Z -> hop(X, Z).",
            [("edge", (1, 2)), ("edge", (2, 3)), ("edge", (2, 1))],
        )
        assert sorted(planned.query("hop")) == sorted(unplanned.query("hop"))
        assert planned.stats.iterations == unplanned.stats.iterations


class TestJoinPlanDataclass:
    def test_infeasible_plan_keeps_textual_order(self):
        database = Database([("p", (1, "x"))])
        rule = parse_rule("p(X, #f(Y)), not q(Y) -> out(X).")
        plan = plan_rule(rule, None, database)
        assert isinstance(plan, JoinPlan)
        assert plan.order == tuple(range(len(rule.body)))

    def test_membership_probe_is_cheapest(self):
        database = Database([("e", (1, 2))] + [("r", (i,)) for i in range(50)])
        rule = parse_rule("e(X, Y), r(X), r(Y) -> out(X, Y).")
        plan = plan_rule(rule, None, database)
        rendered = [s.rendered for s in plan.steps]
        # once e binds X and Y, the r atoms are existence probes and the
        # planner runs them immediately rather than scanning r
        assert rendered[0] == "e(X, Y)"
        assert plan.steps[1].estimated_rows < 1.0


@pytest.mark.parametrize("threshold", [0.2, 0.5])
def test_paper_close_links_program_equivalence(threshold):
    """The flagship workload: planned == unplanned on a small pyramid."""
    from repro.bench.workloads import ownership_pyramid
    from repro.core import KnowledgeGraph, close_link_program, input_mapping
    from repro.graph.relational import to_facts

    graph = ownership_pyramid(12, m=2, seed=5)
    kg = KnowledgeGraph(graph)
    kg.add_rules("m", input_mapping(False))
    kg.add_rules("p", close_link_program(threshold))
    program = kg.program()
    planned = Engine(program, to_facts(graph))
    planned.run()
    unplanned = Engine(program, to_facts(graph), plan=False)
    unplanned.run()
    assert set(planned.database.all_facts()) == set(unplanned.database.all_facts())
    assert planned.stats.rule_firings == unplanned.stats.rule_firings
