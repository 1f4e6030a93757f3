"""Pair decisions of the family, control and close-link steps
(Algorithms 3-9), checked on the Vadalog rules ``ReasoningPipeline``
serves."""

import pytest

from repro.core import FAMILY_LINK_CLASSES, PipelineConfig, ReasoningPipeline, explain_close_link
from repro.graph import CompanyGraph, figure1_graph
from repro.linkage import default_classifiers


def pipeline_for(graph: CompanyGraph) -> ReasoningPipeline:
    return ReasoningPipeline(
        graph, PipelineConfig(first_level_clusters=1, use_embeddings=False)
    )


@pytest.fixture
def graph():
    return figure1_graph()


class TestControlCandidate:
    def test_decides_paper_pairs(self, graph):
        pairs = pipeline_for(graph).control_pairs()
        assert ("P1", "F") in pairs
        assert ("P1", "L") not in pairs


class TestCloseLinkCandidate:
    def test_common_owner_pair_found(self, graph):
        # P1 owns 80% of C and 75% of D -> C~D by common owner
        assert ("C", "D") in pipeline_for(graph).close_link_pairs()
        explanation = explain_close_link(graph, "C", "D")
        assert explanation.verdict
        assert any("P1" in step for step in explanation.steps)

    def test_unrelated_pair_rejected(self, graph):
        pairs = pipeline_for(graph).close_link_pairs()
        assert ("C", "G") not in pairs and ("G", "C") not in pairs


class TestFamilyLinkCandidate:
    def test_accepts_persons_only(self):
        graph = CompanyGraph()
        graph.add_person("a", address="x", birth_date="1960-01-01", sex="M")
        graph.add_person("b", address="x", birth_date="1962-01-01", sex="F")
        graph.add_company("c", address="x")
        graph.add_shareholding("a", "c", 0.6)
        links = pipeline_for(graph).family_links()
        assert links
        assert all(x in {"a", "b"} and y in {"a", "b"} for x, y, _ in links)

    def test_default_candidates_cover_three_classes(self):
        assert set(FAMILY_LINK_CLASSES) == {"partner_of", "sibling_of", "parent_of"}
        classes = {c.link_class for c in default_classifiers()}
        assert classes == set(FAMILY_LINK_CLASSES)
        assert set(pipeline_for(figure1_graph()).classifiers) == classes
