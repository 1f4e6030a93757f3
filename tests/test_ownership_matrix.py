"""Tests for integrated ownership (matrix walk-sum) and UBO detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CompanyGraph, figure1_graph
from repro.ownership import (
    BeneficialOwner,
    accumulated_ownership_from,
    all_beneficial_owners,
    beneficial_owners,
    integrated_ownership,
    integrated_ownership_from,
    integrated_ownership_matrix,
    opaque_companies,
    ownership_matrix,
)


def cross_holding() -> CompanyGraph:
    """p owns 60% of a; a and b hold 50%/40% of each other.

    Analytically: y_a = 0.6 / (1 - 0.2) = 0.75, y_b = 0.5 * y_a = 0.375.
    """
    graph = CompanyGraph()
    graph.add_person("p")
    graph.add_company("a")
    graph.add_company("b")
    graph.add_shareholding("p", "a", 0.6)
    graph.add_shareholding("a", "b", 0.5)
    graph.add_shareholding("b", "a", 0.4)
    return graph


class TestOwnershipMatrix:
    def test_entries(self):
        graph = cross_holding()
        nodes, matrix = ownership_matrix(graph)
        index = {node: i for i, node in enumerate(nodes)}
        assert matrix[index["p"], index["a"]] == pytest.approx(0.6)
        assert matrix[index["b"], index["a"]] == pytest.approx(0.4)
        assert matrix[index["p"], index["b"]] == 0.0

    def test_parallel_edges_sum(self):
        graph = CompanyGraph()
        graph.add_company("a")
        graph.add_company("b")
        graph.add_shareholding("a", "b", 0.2)
        graph.add_shareholding("a", "b", 0.3)
        nodes, matrix = ownership_matrix(graph)
        index = {node: i for i, node in enumerate(nodes)}
        assert matrix[index["a"], index["b"]] == pytest.approx(0.5)

    def test_empty_graph(self):
        nodes, matrix = integrated_ownership_matrix(CompanyGraph())
        assert nodes == [] and matrix.shape == (0, 0)


class TestMixedIdOrdering:
    """Node ids that stringify identically (1 vs "1") used to get an
    ambiguous matrix order from ``sorted(key=str)`` — timsort stability
    made it depend on dict insertion order.  The frame's intern order
    breaks the tie deterministically by type."""

    @staticmethod
    def build(first_int: bool) -> CompanyGraph:
        graph = CompanyGraph()
        order = [1, "1"] if first_int else ["1", 1]
        for owner in order:
            graph.add_company(owner)
        graph.add_company("t")
        graph.add_shareholding(1, "t", 0.4)
        graph.add_shareholding("1", "t", 0.2)
        return graph

    def test_order_is_insertion_independent(self):
        nodes_a, matrix_a = ownership_matrix(self.build(first_int=True))
        nodes_b, matrix_b = ownership_matrix(self.build(first_int=False))
        assert nodes_a == nodes_b
        assert (matrix_a != matrix_b).nnz == 0

    def test_colliding_ids_keep_distinct_rows(self):
        nodes, matrix = ownership_matrix(self.build(first_int=True))
        assert len(nodes) == 3
        index = {node: i for i, node in enumerate(nodes)}
        assert len(index) == 3  # bijective: 1 and "1" are separate rows
        assert matrix[index[1], index["t"]] == pytest.approx(0.4)
        assert matrix[index["1"], index["t"]] == pytest.approx(0.2)

    def test_integrated_ownership_distinguishes_colliding_sources(self):
        graph = self.build(first_int=True)
        assert integrated_ownership_from(graph, 1) == {"t": pytest.approx(0.4)}
        assert integrated_ownership_from(graph, "1") == {"t": pytest.approx(0.2)}


class TestIntegratedOwnership:
    def test_cyclic_analytic_solution(self):
        graph = cross_holding()
        assert integrated_ownership(graph, "p", "a") == pytest.approx(0.75)
        assert integrated_ownership(graph, "p", "b") == pytest.approx(0.375)

    def test_matches_accumulated_on_dag(self):
        graph = figure1_graph()
        for source in ("P1", "P2"):
            integrated = integrated_ownership_from(graph, source)
            accumulated = accumulated_ownership_from(graph, source)
            assert set(integrated) == {k for k, v in accumulated.items() if v > 1e-12}
            for target, value in integrated.items():
                assert value == pytest.approx(accumulated[target])

    def test_from_source_matches_full_matrix(self):
        graph = cross_holding()
        nodes, matrix = integrated_ownership_matrix(graph)
        index = {node: i for i, node in enumerate(nodes)}
        per_source = integrated_ownership_from(graph, "p")
        for target, value in per_source.items():
            assert value == pytest.approx(float(matrix[index["p"], index[target]]))

    def test_missing_source(self):
        graph = cross_holding()
        assert integrated_ownership_from(graph, "nobody") == {}
        assert integrated_ownership(graph, "nobody", "a") == 0.0

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_dag_property_integrated_equals_accumulated(self, n, seed):
        import random

        rng = random.Random(seed)
        graph = CompanyGraph()
        for i in range(n):
            graph.add_company(f"c{i}")
        for target in range(1, n):
            budget = 1.0
            for source in range(target):
                if rng.random() < 0.5:
                    share = min(round(rng.uniform(0.05, 0.5), 3), budget)
                    if share >= 0.05:
                        graph.add_shareholding(f"c{source}", f"c{target}", share)
                        budget -= share
        integrated = integrated_ownership_from(graph, "c0")
        accumulated = accumulated_ownership_from(graph, "c0")
        for target, value in integrated.items():
            assert value == pytest.approx(accumulated[target], abs=1e-9)


class TestUbo:
    def test_figure1_ubo_of_l(self):
        graph = figure1_graph()
        owners = beneficial_owners(graph, "L")
        assert [o.person for o in owners] == ["P2"]
        assert owners[0].integrated_share == pytest.approx(0.3104, abs=1e-4)
        assert not owners[0].controls
        assert owners[0].basis == "ownership"

    def test_controller_below_threshold_still_ubo(self):
        # a three-level 51% pyramid: integrated share 0.51^3 = 0.13 < 25%,
        # yet p controls t through the vote-majority chain
        graph = CompanyGraph()
        graph.add_person("p")
        graph.add_company("a")
        graph.add_company("b")
        graph.add_company("t")
        graph.add_shareholding("p", "a", 0.51)
        graph.add_shareholding("a", "b", 0.51)
        graph.add_shareholding("b", "t", 0.51)
        owners = beneficial_owners(graph, "t")
        assert len(owners) == 1
        assert owners[0].controls
        assert owners[0].integrated_share < 0.25
        assert owners[0].basis == "control"

    def test_dispersed_company_is_opaque(self):
        graph = CompanyGraph()
        for i in range(6):
            graph.add_person(f"p{i}")
        graph.add_company("c")
        for i in range(6):
            graph.add_shareholding(f"p{i}", "c", 0.16)
        assert opaque_companies(graph) == ["c"]

    def test_all_beneficial_owners_consistent(self):
        graph = figure1_graph()
        everything = all_beneficial_owners(graph)
        for company, owners in everything.items():
            assert owners == beneficial_owners(graph, company)

    def test_company_shareholder_is_not_ubo(self):
        """Only natural persons can be beneficial owners."""
        graph = CompanyGraph()
        graph.add_company("holding")
        graph.add_company("sub")
        graph.add_shareholding("holding", "sub", 0.9)
        assert beneficial_owners(graph, "sub") == []
        assert "sub" in opaque_companies(graph)
