"""Tests for the business-facing explanation service."""

from repro.bench import ownership_pyramid
from repro.core.explain import (
    Explanation,
    explain_close_link,
    explain_control,
    explain_family_link,
)
from repro.graph import figure1_graph, figure2_graph
from repro.linkage import BayesianLinkClassifier, partner_features
from repro.linkage.training import default_classifiers
from repro.ownership import close_link_pairs

from .test_definitions_differential import twenty_hop_chain


class TestExplainControl:
    def test_positive_chain(self):
        explanation = explain_control(figure1_graph(), "P1", "F")
        assert explanation.verdict
        assert any("control established" in step for step in explanation.steps)
        assert any("absorbs" in step for step in explanation.steps)

    def test_negative_case(self):
        explanation = explain_control(figure1_graph(), "P1", "L")
        assert not explanation.verdict
        assert any("no set of companies" in step for step in explanation.steps)

    def test_render(self):
        rendered = explain_control(figure1_graph(), "P2", "I").render()
        assert "YES" in rendered
        assert rendered.startswith("does P2 control I?")

    def test_direct_share_mentioned_when_present(self):
        explanation = explain_control(figure1_graph(), "F", "L")
        assert not explanation.verdict
        assert any("20.0%" in step for step in explanation.steps)


class TestExplainCloseLink:
    def test_direct_condition(self):
        explanation = explain_close_link(figure2_graph(), "C4", "C7")
        assert explanation.verdict
        assert any("condition (i)" in step for step in explanation.steps)
        assert any("C4 -> C3 -> C7" in step for step in explanation.steps)

    def test_common_owner_condition(self):
        explanation = explain_close_link(figure2_graph(), "C4", "C6")
        assert explanation.verdict
        assert any("condition (iii)" in step and "P3" in step
                   for step in explanation.steps)

    def test_negative_case(self):
        explanation = explain_close_link(figure1_graph(), "C", "G")
        assert not explanation.verdict
        assert any("no third party" in step for step in explanation.steps)

    def test_a_dense_pyramid_needs_no_path_budget(self):
        graph = ownership_pyramid(48, m=3, seed=1)
        pairs = close_link_pairs(graph)
        for x in graph.node_ids():
            for y in graph.node_ids():
                if x != y:
                    assert explain_close_link(graph, x, y).verdict == ((x, y) in pairs)

    def test_a_deep_chain_is_linked(self):
        explanation = explain_close_link(twenty_hop_chain(), "c0", "c15")
        assert explanation.verdict
        assert any(step.startswith("condition (i): Phi(c0, c15) = 46.3%")
                   for step in explanation.steps)

    def test_the_verdict_is_the_close_link_relation_on_a_cyclic_graph(self):
        graph = figure1_graph()
        graph.add_shareholding("L", "D", 0.3)  # closes D -> F -> L -> D
        graph.add_shareholding("I", "G", 0.4)  # a cross-holding
        graph.add_shareholding("F", "F", 0.1)  # a buy-back
        pairs = close_link_pairs(graph)
        companies = [node.id for node in graph.companies()]
        for x in companies:
            for y in companies:
                if x != y:
                    assert explain_close_link(graph, x, y).verdict == ((x, y) in pairs)


class TestExplainFamilyLink:
    def test_positive_partner(self):
        classifier = BayesianLinkClassifier("partner_of", partner_features())
        husband = {"address": "x", "birth_date": "1960-01-01", "sex": "M"}
        wife = {"address": "x", "birth_date": "1963-05-05", "sex": "F"}
        explanation = explain_family_link(classifier, husband, wife)
        assert explanation.verdict
        assert any("address: match" in step for step in explanation.steps)
        assert any("combined probability" in step for step in explanation.steps)

    def test_direction_violation_reported(self):
        classifiers = {c.link_class: c for c in default_classifiers()}
        child = {"birth_date": "1990-01-01", "surname": "Rossi"}
        parent = {"birth_date": "1960-01-01", "surname": "Rossi"}
        explanation = explain_family_link(classifiers["parent_of"], child, parent)
        assert not explanation.verdict
        assert any("direction constraint" in step for step in explanation.steps)

    def test_missing_feature_reported(self):
        classifier = BayesianLinkClassifier("partner_of", partner_features())
        explanation = explain_family_link(classifier, {"address": "x"}, {"address": "x"})
        assert any("missing value" in step for step in explanation.steps)
