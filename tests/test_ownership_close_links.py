"""Tests for accumulated ownership and close links (Definitions 2.5/2.6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CompanyGraph, figure2_graph
from repro.ownership import (
    PathBudgetExceeded,
    accumulated_ownership,
    accumulated_ownership_from,
    all_accumulated_ownership,
    close_link_pairs,
    close_links,
    closely_linked,
    is_acyclic,
    path_weight,
    simple_paths,
)


def diamond() -> CompanyGraph:
    """a -> {b, c} -> d with known weights: Phi(a,d) = 0.5*0.4 + 0.3*0.5 = 0.35."""
    graph = CompanyGraph()
    for company in ("a", "b", "c", "d"):
        graph.add_company(company)
    graph.add_shareholding("a", "b", 0.5)
    graph.add_shareholding("a", "c", 0.3)
    graph.add_shareholding("b", "d", 0.4)
    graph.add_shareholding("c", "d", 0.5)
    return graph


class TestSimplePaths:
    def test_diamond_has_two_paths(self):
        graph = diamond()
        paths = sorted(simple_paths(graph, "a", "d"))
        assert paths == [["a", "b", "d"], ["a", "c", "d"]]

    def test_max_depth(self):
        graph = diamond()
        assert list(simple_paths(graph, "a", "d", max_depth=1)) == []

    def test_path_budget(self):
        graph = diamond()
        with pytest.raises(PathBudgetExceeded):
            list(simple_paths(graph, "a", "d", max_paths=1))

    def test_cycle_paths_are_simple(self):
        graph = CompanyGraph()
        for company in ("a", "b", "c"):
            graph.add_company(company)
        graph.add_shareholding("a", "b", 0.5)
        graph.add_shareholding("b", "a", 0.5)
        graph.add_shareholding("b", "c", 0.5)
        assert list(simple_paths(graph, "a", "c")) == [["a", "b", "c"]]

    def test_parallel_edges_yield_one_path(self):
        graph = CompanyGraph()
        graph.add_company("a")
        graph.add_company("b")
        graph.add_shareholding("a", "b", 0.2)
        graph.add_shareholding("a", "b", 0.3)
        paths = list(simple_paths(graph, "a", "b"))
        assert paths == [["a", "b"]]
        assert path_weight(graph, paths[0]) == pytest.approx(0.5)

    def test_missing_endpoints(self):
        graph = diamond()
        assert list(simple_paths(graph, "zzz", "d")) == []
        assert list(simple_paths(graph, "a", "zzz")) == []


class TestAccumulatedOwnership:
    def test_diamond_value(self):
        assert accumulated_ownership(diamond(), "a", "d") == pytest.approx(0.35)

    def test_paper_figure2_value(self):
        assert accumulated_ownership(figure2_graph(), "C4", "C7") == pytest.approx(0.2)

    def test_from_source_matches_per_pair(self):
        graph = diamond()
        from_a = accumulated_ownership_from(graph, "a")
        for target in ("b", "c", "d"):
            assert from_a[target] == pytest.approx(
                accumulated_ownership(graph, "a", target)
            )

    def test_dag_dp_matches_enumeration(self):
        graph = diamond()
        assert is_acyclic(graph)
        dp = accumulated_ownership_from(graph, "a")
        assert dp["d"] == pytest.approx(0.35)

    def test_cross_holding_counts_each_simple_path_once(self):
        """a <-> b hold half of each other: the walk a -> b -> a -> c is
        not simple, so Phi(a, c) = 0.1 + 0.5 * 0.4 (and not a walk sum)."""
        graph = CompanyGraph()
        for company in ("a", "b", "c"):
            graph.add_company(company)
        graph.add_shareholding("a", "b", 0.5)
        graph.add_shareholding("b", "a", 0.5)
        graph.add_shareholding("a", "c", 0.1)
        graph.add_shareholding("b", "c", 0.4)
        graph.add_shareholding("c", "c", 0.3)  # a buy-back lies on no simple path
        phi = accumulated_ownership_from(graph, "a")
        assert phi == {"b": 0.5, "c": pytest.approx(0.3)}
        assert accumulated_ownership_from(graph, "b")["c"] == pytest.approx(0.45)

    def test_is_acyclic_detects_self_loop(self):
        graph = CompanyGraph()
        graph.add_company("a")
        assert is_acyclic(graph)
        graph.add_shareholding("a", "a", 0.1)
        assert not is_acyclic(graph)


@st.composite
def random_graph(draw):
    """A random weighted shareholding graph: cycles, self-loops, parallel
    edges and persons all allowed."""
    n = draw(st.integers(min_value=1, max_value=8))
    persons = draw(st.integers(min_value=0, max_value=2))
    graph = CompanyGraph()
    for i in range(n):
        graph.add_company(f"c{i}")
    for i in range(persons):
        graph.add_person(f"p{i}")
    owners = [f"c{i}" for i in range(n)] + [f"p{i}" for i in range(persons)]
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        owner = draw(st.sampled_from(owners))
        target = draw(st.integers(min_value=0, max_value=n - 1))
        weight = draw(st.floats(min_value=0.01, max_value=1.0))
        graph.add_shareholding(owner, f"c{target}", weight)
    return graph


class TestExactRouteProperty:
    @given(random_graph())
    @settings(max_examples=120, deadline=None)
    def test_dp_equals_path_enumeration(self, graph):
        """The condensation DP equals Definition 2.5 verbatim: the same
        reachable targets, the same sums; and a row is the same float
        for float whether computed alone or with every other row."""
        rows = all_accumulated_ownership(graph)
        for source in graph.node_ids():
            row = accumulated_ownership_from(graph, source)
            assert row == rows[source]
            reachable = {
                target for target in graph.node_ids()
                if target != source and next(simple_paths(graph, source, target), None)
            }
            assert set(row) == reachable
            for target, value in row.items():
                assert value == pytest.approx(
                    accumulated_ownership(graph, source, target), rel=1e-9, abs=1e-12
                )


class TestCloseLinks:
    def test_direct_threshold(self):
        graph = diamond()
        assert closely_linked(graph, "a", "d", threshold=0.3)   # Phi = 0.35
        assert not closely_linked(graph, "a", "d", threshold=0.4)

    def test_symmetry(self):
        graph = diamond()
        pairs = close_link_pairs(graph)
        assert ("a", "d") in pairs and ("d", "a") in pairs

    def test_common_owner_condition(self):
        """Definition 2.6-(iii): common third party owning >= t of both."""
        graph = CompanyGraph()
        graph.add_person("z")
        graph.add_company("x")
        graph.add_company("y")
        graph.add_shareholding("z", "x", 0.25)
        graph.add_shareholding("z", "y", 0.25)
        links = close_links(graph)
        common = [l for l in links if l.reason == "common-owner"]
        assert {(l.x, l.y) for l in common} == {("x", "y"), ("y", "x")}
        assert all(l.witness == "z" for l in common)

    def test_persons_not_close_linked_themselves(self):
        graph = CompanyGraph()
        graph.add_person("p")
        graph.add_company("x")
        graph.add_shareholding("p", "x", 0.9)
        assert all(
            graph.is_company(l.x) and graph.is_company(l.y) for l in close_links(graph)
        )

    def test_paper_figure2_examples(self):
        graph = figure2_graph()
        pairs = close_link_pairs(graph)
        assert ("C4", "C7") in pairs   # Phi(C4, C7) = 0.2, Def 2.6-(i)
        assert ("C4", "C6") in pairs   # P3 owns >= 20% of both, Def 2.6-(iii)
