"""Cross-module property-based tests on domain invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import CompanySpec, generate_company_graph
from repro.embeddings import kmeans
from repro.graph import CompanyGraph, profile, to_facts
from repro.ownership import (
    accumulated_ownership_from,
    control_closure,
    controlled_by,
    group_controlled,
)


@st.composite
def random_company_graph(draw):
    """A random (possibly cyclic) company graph with valid equity."""
    companies = draw(st.integers(min_value=1, max_value=8))
    persons = draw(st.integers(min_value=0, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = CompanyGraph()
    for i in range(companies):
        graph.add_company(f"c{i}")
    for i in range(persons):
        graph.add_person(f"p{i}")
    owners = [f"c{i}" for i in range(companies)] + [f"p{i}" for i in range(persons)]
    for target in range(companies):
        budget = 1.0
        for _ in range(rng.randint(0, 3)):
            owner = rng.choice(owners)
            if owner == f"c{target}":
                continue
            share = min(round(rng.uniform(0.05, 0.6), 3), budget)
            if share >= 0.05:
                graph.add_shareholding(owner, f"c{target}", share)
                budget -= share
    return graph


class TestControlInvariants:
    @given(random_company_graph())
    @settings(max_examples=50, deadline=None)
    def test_control_targets_are_companies(self, graph):
        for _, controlled in control_closure(graph):
            assert graph.is_company(controlled)

    @given(random_company_graph())
    @settings(max_examples=50, deadline=None)
    def test_control_is_transitively_closed(self, graph):
        pairs = control_closure(graph)
        # if x controls z, everything z controls is also controlled by x
        controlled_of = {}
        for x, y in pairs:
            controlled_of.setdefault(x, set()).add(y)
        for x, targets in controlled_of.items():
            for z in list(targets):
                for y in controlled_of.get(z, set()):
                    if y != x:
                        assert y in targets, (x, z, y)

    @given(random_company_graph())
    @settings(max_examples=50, deadline=None)
    def test_group_control_superset_of_individual(self, graph):
        members = [n.id for n in graph.persons()][:2]
        if len(members) < 2:
            return
        joint = group_controlled(graph, members)
        individual = set()
        for member in members:
            individual |= controlled_by(graph, member)
        assert individual - set(members) <= joint

    @given(random_company_graph(), st.floats(min_value=0.3, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_control_antitone_in_threshold(self, graph, threshold):
        strict = control_closure(graph, threshold=threshold)
        loose = control_closure(graph, threshold=0.2)
        assert strict <= loose


class TestOwnershipInvariants:
    @given(random_company_graph())
    @settings(max_examples=40, deadline=None)
    def test_accumulated_ownership_positive_and_bounded_hops(self, graph):
        for source in list(graph.node_ids())[:4]:
            phi = accumulated_ownership_from(graph, source)
            for value in phi.values():
                assert value > 0

    @given(random_company_graph())
    @settings(max_examples=40, deadline=None)
    def test_direct_share_lower_bounds_phi(self, graph):
        for edge in graph.shareholdings():
            if edge.source == edge.target:
                continue
            phi = accumulated_ownership_from(graph, edge.source)
            assert phi.get(edge.target, 0.0) >= graph.share(
                edge.source, edge.target
            ) - 1e-9


class TestRelationalInvariants:
    @given(random_company_graph())
    @settings(max_examples=40, deadline=None)
    def test_fact_counts_match_graph(self, graph):
        database = to_facts(graph)
        assert database.count("company") == sum(1 for _ in graph.companies())
        assert database.count("person") == sum(1 for _ in graph.persons())
        # parallel edges merge, so facts <= edges
        assert database.count("own") <= graph.edge_count

    @given(random_company_graph())
    @settings(max_examples=40, deadline=None)
    def test_merged_own_weights_equal_share(self, graph):
        database = to_facts(graph)
        for values in database.facts("own"):
            source, target, weight = values[0], values[1], values[2]
            assert weight == pytest.approx(graph.share(source, target))


class TestGeneratorInvariants:
    @given(st.integers(min_value=10, max_value=80), st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_profile_consistency(self, persons, seed):
        graph, _ = generate_company_graph(
            CompanySpec(persons=persons, companies=persons // 2 + 1, seed=seed)
        )
        stats = profile(graph)
        assert stats.nodes == graph.node_count
        assert stats.edges == graph.edge_count
        assert stats.scc_count <= stats.nodes
        assert stats.wcc_count <= stats.scc_count  # WCCs merge SCCs


class TestKMeansInvariants:
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_labels_in_range_and_total(self, n, k, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        points = rng.normal(0, 1, (n, 3))
        labels, centroids = kmeans(points, k, seed=seed)
        assert len(labels) == n
        assert all(0 <= label < len(centroids) for label in labels)
        assert len(centroids) <= min(k, n)
