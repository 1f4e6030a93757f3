"""Property-based tests of the Datalog engine against independent oracles."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Database, Engine, parse_program, solve

TC_PROGRAM = """
edge(X, Y) -> path(X, Y).
path(X, Z), edge(Z, Y) -> path(X, Y).
"""


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=25,
        )
    )
    return edges


class TestTransitiveClosureOracle:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, edges):
        engine = solve(TC_PROGRAM, [("edge", e) for e in edges])
        ours = set(engine.query("path"))

        digraph = nx.DiGraph(edges)
        theirs = set()
        for source in digraph.nodes:
            lengths = nx.single_source_shortest_path_length(digraph, source)
            for target, distance in lengths.items():
                if distance >= 1:
                    theirs.add((source, target))
                # self-paths via cycles need >= 1 step; networkx reports
                # distance 0 for the source itself, so detect cycles:
            if digraph.has_edge(source, source):
                theirs.add((source, source))
        # nodes on directed cycles reach themselves
        for component in nx.strongly_connected_components(digraph):
            if len(component) > 1:
                for node in component:
                    theirs.add((node, node))
        assert ours == theirs

    @given(edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_naive_equals_seminaive(self, edges):
        facts = [("edge", e) for e in edges]
        fast = solve(TC_PROGRAM, list(facts))
        slow = Engine(parse_program(TC_PROGRAM), Database(list(facts)), seminaive=False)
        slow.run()
        assert set(fast.query("path")) == set(slow.query("path"))

    @given(edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, edges):
        facts = [("edge", e) for e in edges]
        first = solve(TC_PROGRAM, list(facts))
        second = solve(TC_PROGRAM, list(facts))
        assert set(first.query("path")) == set(second.query("path"))


class TestAggregateOracle:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),       # group
                st.integers(min_value=0, max_value=6),       # contributor
                st.floats(min_value=0.01, max_value=1.0),    # value
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_msum_equals_python_groupby(self, rows):
        engine = solve(
            "contribution(G, Z, W), T = msum(W, <Z>) -> total(G, T).",
            [("contribution", row) for row in rows],
        )
        # oracle: per group, each contributor counts once at its max value
        expected: dict[int, dict[int, float]] = {}
        for group, contributor, value in rows:
            bucket = expected.setdefault(group, {})
            bucket[contributor] = max(bucket.get(contributor, 0.0), value)
        for group, contributions in expected.items():
            target = sum(contributions.values())
            best = max(t for g, t in engine.query("total") if g == group)
            assert best == pytest.approx(target)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=9)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mcount_equals_distinct_count(self, rows):
        engine = solve(
            "member(G, Z), T = mcount(<Z>) -> size(G, T).",
            [("member", row) for row in rows],
        )
        expected: dict[int, set[int]] = {}
        for group, member in rows:
            expected.setdefault(group, set()).add(member)
        for group, members in expected.items():
            best = max(t for g, t in engine.query("size") if g == group)
            assert best == len(members)


class TestSetSemantics:
    @given(edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_duplicate_facts_are_idempotent(self, edges):
        once = solve(TC_PROGRAM, [("edge", e) for e in edges])
        twice = solve(TC_PROGRAM, [("edge", e) for e in edges + edges])
        assert set(once.query("path")) == set(twice.query("path"))

    @given(edge_lists())
    @settings(max_examples=20, deadline=None)
    def test_monotone_under_fact_addition(self, edges):
        if not edges:
            return
        smaller = solve(TC_PROGRAM, [("edge", e) for e in edges[:-1]])
        larger = solve(TC_PROGRAM, [("edge", e) for e in edges])
        assert set(smaller.query("path")) <= set(larger.query("path"))


@st.composite
def recursive_aggregate_programs(draw):
    """A random recursive program with optional Skolem checks + aggregates.

    The generated rules are drawn so the interesting engine paths get
    exercised: rules whose body holds a complex term over a predicate
    derived recursively in the same stratum (the semi-naive seed path),
    and monotonic aggregates over recursively derived facts (the
    duplicate-round pruning path).  The exit rule into ``path`` is
    sometimes multi-head, as the input mapping's rules are, and sometimes
    comes textually after every recursive rule.
    """
    exit_rule = draw(st.sampled_from([
        "edge(X, Y) -> path(X, Y).",
        "edge(X, Y) -> path(X, Y), seen(X).",
    ]))
    exit_last = draw(st.booleans())
    rules = [] if exit_last else [exit_rule]
    rules.append("path(X, Z), edge(Z, Y) -> path(X, Y).")
    if draw(st.booleans()):
        rules.append("path(X, Y) -> path(Y, X).")
    if draw(st.booleans()):
        # Skolem producer + checker, recursive through path so delta
        # facts seed the complex-term atom
        rules.append("mark(X) -> path(X, #tag(X)).")
        checked = draw(st.sampled_from(["#tag(X)", "#other(X)"]))
        rules.append(
            f"mark(X), path(X, {checked}) -> hit(X), path(X, X)."
        )
    aggregate = draw(st.sampled_from([None, "msum", "mcount", "mmax"]))
    if aggregate == "msum":
        rules.append("weight(X, Y, W), path(X, Y), T = msum(W, <Y>) "
                     "-> mass(X, T).")
    elif aggregate == "mcount":
        rules.append("path(X, Y), T = mcount(<Y>) -> fanout(X, T).")
        if draw(st.booleans()):
            # feed the count back into recursion
            rules.append("fanout(X, T), T > 2 -> busy(X), path(X, X).")
    elif aggregate == "mmax":
        rules.append("weight(X, Y, W), path(X, Y), T = mmax(W, <Y>) "
                     "-> best(X, T).")
    if draw(st.booleans()):
        # stratified negation over an EDB predicate
        rules.append("edge(X, Y), not mark(Y) -> open_end(X, Y).")
    if draw(st.booleans()):
        # stratified negation over the recursively derived predicate:
        # isolated sits in a stratum strictly above path
        rules.append("mark(X), not path(X, X) -> isolated(X).")
    if exit_last:
        rules.append(exit_rule)

    n = draw(st.integers(min_value=1, max_value=6))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=12))
    marks = draw(st.lists(node, max_size=3))
    weights = draw(
        st.lists(
            st.tuples(node, node, st.integers(min_value=1, max_value=9)),
            max_size=8,
        )
    )
    facts = (
        [("edge", e) for e in edges]
        + [("mark", (m,)) for m in marks]
        + [("weight", w) for w in weights]
    )
    return "\n".join(rules), facts


class TestRandomProgramOracle:
    """Semi-naive and naive evaluation agree on random programs."""

    @given(recursive_aggregate_programs())
    @settings(max_examples=60, deadline=None)
    def test_naive_equals_seminaive_on_random_programs(self, case):
        program_text, facts = case
        fast = Engine(parse_program(program_text), Database(list(facts)))
        fast.run()
        slow = Engine(
            parse_program(program_text), Database(list(facts)), seminaive=False
        )
        slow.run()
        assert set(fast.database.all_facts()) == set(slow.database.all_facts())

    @given(recursive_aggregate_programs())
    @settings(max_examples=30, deadline=None)
    def test_seminaive_never_fires_more_than_naive(self, case):
        # semi-naive restricts each rule to delta-seeded bindings, so it
        # can only remove duplicate work, never add derivations
        program_text, facts = case
        fast = Engine(parse_program(program_text), Database(list(facts)))
        fast.run()
        slow = Engine(
            parse_program(program_text), Database(list(facts)), seminaive=False
        )
        slow.run()
        assert fast.stats.facts_derived == slow.stats.facts_derived


class TestPlannerOracle:
    """The join planner is invisible except for speed.

    Planned evaluation must reach a byte-identical fixpoint —
    same facts, same firing counts — as textual-order interpretation on
    random recursive/aggregate/negation programs.
    """

    @given(recursive_aggregate_programs())
    @settings(max_examples=60, deadline=None)
    def test_planned_equals_unplanned_on_random_programs(self, case):
        program_text, facts = case
        program = parse_program(program_text)
        planned = Engine(program, Database(list(facts)))
        planned.run()
        unplanned = Engine(program, Database(list(facts)), plan=False)
        unplanned.run()
        assert set(planned.database.all_facts()) == set(
            unplanned.database.all_facts()
        )
        assert planned.stats.rule_firings == unplanned.stats.rule_firings
        assert planned.stats.facts_derived == unplanned.stats.facts_derived

    @given(recursive_aggregate_programs())
    @settings(max_examples=30, deadline=None)
    def test_planned_naive_equals_unplanned_seminaive(self, case):
        # cross the two axes: planned evaluation under naive evaluation
        # must still agree with the interpreted semi-naive fixpoint
        program_text, facts = case
        naive_planned = Engine(
            parse_program(program_text), Database(list(facts)), seminaive=False
        )
        naive_planned.run()
        seminaive_unplanned = Engine(
            parse_program(program_text), Database(list(facts)), plan=False
        )
        seminaive_unplanned.run()
        assert set(naive_planned.database.all_facts()) == set(
            seminaive_unplanned.database.all_facts()
        )
