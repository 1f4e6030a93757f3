"""Tests for the end-to-end reasoning pipeline (Section 5 architecture)."""

import pytest

from repro.core import PipelineConfig, ReasoningPipeline
from repro.datagen import CompanySpec, generate_company_graph
from repro.graph import FAMILY, CompanyGraph, figure1_graph
from repro.linkage import persons_of, train_classifiers
from repro.ownership import close_link_pairs, control_closure


def fast_config(**overrides):
    defaults = dict(first_level_clusters=1, use_embeddings=False)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def world():
    return generate_company_graph(
        CompanySpec(persons=80, companies=50, seed=31, feature_noise=0.0)
    )


class TestDeterministicProblems:
    def test_control_matches_reference(self):
        graph = figure1_graph()
        pipeline = ReasoningPipeline(graph, fast_config())
        assert pipeline.control_pairs() == control_closure(graph)

    def test_close_links_match_reference(self):
        graph = figure1_graph()
        pipeline = ReasoningPipeline(graph, fast_config())
        assert pipeline.close_link_pairs() == close_link_pairs(graph)

    def test_cyclic_graph_uses_procedural_fallback(self):
        graph = CompanyGraph()
        for company in ("a", "b", "c"):
            graph.add_company(company)
        graph.add_shareholding("a", "b", 0.5)
        graph.add_shareholding("b", "a", 0.5)
        graph.add_shareholding("a", "c", 0.25)
        pipeline = ReasoningPipeline(graph, fast_config())
        pairs = pipeline.close_link_pairs()  # must not diverge
        assert ("a", "c") in pairs

    def test_cyclic_graph_matches_the_reference(self):
        graph = figure1_graph()
        graph.add_shareholding("L", "D", 0.3)  # closes D -> F -> L -> D
        graph.add_shareholding("F", "F", 0.1)  # a buy-back
        pipeline = ReasoningPipeline(graph, fast_config())
        pairs = pipeline.close_link_pairs()
        assert pairs == close_link_pairs(graph)
        assert ("L", "D") in pairs


class TestFamilyDetection:
    def test_family_links_found(self, world):
        graph, truth = world
        classifiers = train_classifiers(persons_of(graph), truth.links, seed=2)
        pipeline = ReasoningPipeline(graph, fast_config(), classifiers=classifiers)
        links = pipeline.family_links()
        assert links
        recall = len(links & truth.links) / len(truth.links)
        assert recall > 0.5

    def test_detected_links_are_person_pairs(self, world):
        graph, truth = world
        pipeline = ReasoningPipeline(graph, fast_config())
        for x, y, _ in pipeline.family_links():
            assert graph.is_person(x) and graph.is_person(y)


class TestLinkProbabilityForms:
    def test_scalar_and_batch_forms_agree_on_unknowns(self, world):
        import numpy as np

        from repro.datalog.terms import skolem

        graph, _ = world
        pipeline = ReasoningPipeline(graph, fast_config())
        scalar = pipeline.kg.functions.get("link_probability")
        batch = pipeline.kg.functions.batch("link_probability")
        person, other = [skolem("sk_p", (n.id,)) for n in list(graph.persons())[:2]]
        values = [person, other, "not-a-person", 42]
        xs = np.asarray([0, 0, 2, 1, 3], dtype=np.int64)
        ys = np.asarray([1, 2, 1, 0, 3], dtype=np.int64)
        for link_class in ("partner_of", "sibling_of", "parent_of", "cousin_of"):
            expected = [
                scalar(link_class, values[x], values[y])
                for x, y in zip(xs.tolist(), ys.tolist())
            ]
            assert batch(values, (link_class, xs, ys)).tolist() == expected
        assert expected == [0.0] * 5  # unknown class

    def test_overriding_the_scalar_drops_the_batch_form(self, world):
        """A re-registered ``$link_probability`` must win on every
        backend — a stale batch form would keep answering instead."""
        graph, _ = world
        pipeline = ReasoningPipeline(graph, fast_config())
        assert pipeline.family_links()
        pipeline.kg.register_function("link_probability", lambda *_: 0.0)
        assert pipeline.family_links() == set()


class TestFamilyMaterialisation:
    def test_links_become_family_nodes(self, world):
        graph, truth = world
        pipeline = ReasoningPipeline(graph.copy(), fast_config())
        links = {("P1", "P2", "partner_of")}
        # use two real persons from the graph
        persons = [n.id for n in graph.persons()][:3]
        links = {
            (persons[0], persons[1], "partner_of"),
            (persons[1], persons[2], "sibling_of"),
        }
        families = pipeline.materialise_families(links)
        assert len(families) == 1
        members = next(iter(families.values()))
        assert members == set(persons[:3])
        assert sum(1 for _ in pipeline.graph.edges(FAMILY)) == 3

    def test_family_control_after_materialisation(self):
        graph = CompanyGraph()
        graph.add_person("mom", name="m")
        graph.add_person("dad", name="d")
        graph.add_company("firm", name="f")
        graph.add_shareholding("mom", "firm", 0.3)
        graph.add_shareholding("dad", "firm", 0.3)
        pipeline = ReasoningPipeline(graph, fast_config())
        pipeline.materialise_families({("mom", "dad", "partner_of")})
        pairs = pipeline.family_control_pairs()
        assert any(company == "firm" for _, company in pairs)


class TestExitRulesSeedNoRound:
    """The input mapping's facts are complete before the ownership rules'
    first round, so no semi-naive round is seeded with them: the
    ``edge_type`` seed of ``ctrl_step`` / ``fam_step`` used to cross every
    shareholding with every unconnected candidate (≈ 600 k rows here)."""

    def test_control_joins_stay_linear_in_the_shareholdings(self):
        from repro.telemetry import Tracer

        graph, _ = generate_company_graph(CompanySpec(persons=500, companies=400, seed=7))
        bound = 2 * sum(1 for _ in graph.shareholdings())
        pipeline = ReasoningPipeline(graph, fast_config())
        assert pipeline.materialise_families(pipeline.family_links())
        tracer = Tracer()
        pipeline.tracer = tracer
        assert pipeline.control_pairs()
        assert pipeline.family_control_pairs()

        plans = [
            span for span in tracer.root.walk()
            if span.name.startswith(("plan:ctrl_step", "plan:fam_step"))
        ]
        assert {span.name.split()[0] for span in plans} == {
            "plan:ctrl_step", "plan:fam_step"
        }
        for span in plans:
            assert max(span.attributes["actual_rows"]) <= bound, span.name


class TestAugment:
    def test_augment_adds_typed_edges(self, world):
        graph, truth = world
        classifiers = train_classifiers(persons_of(graph), truth.links, seed=2)
        pipeline = ReasoningPipeline(graph, fast_config(), classifiers=classifiers)
        augmented = pipeline.augment()
        labels = {edge.label for edge in augmented.edges()}
        assert "control" in labels or "close_link" in labels
        assert augmented.edge_count > graph.edge_count

    def test_augment_leaves_original_untouched(self, world):
        graph, _ = world
        before = graph.edge_count
        ReasoningPipeline(graph, fast_config()).augment()
        assert graph.edge_count == before


class TestProvenance:
    def test_control_explanation_available(self):
        graph = figure1_graph()
        pipeline = ReasoningPipeline(graph, fast_config())
        pipeline.control_pairs(provenance=True)
        engine = pipeline.last_engine
        lines = engine.explain("control", ("P1", "C"))
        assert any("ctrl" in line or "extensional" in line for line in lines)
