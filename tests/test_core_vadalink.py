"""Algorithm 1's augmentation, checked on ``ReasoningPipeline``: what it
adds to the graph, what it finds and how many pairs it scores."""

import pytest

from repro.bench import traced_comparisons
from repro.core import FAMILY_LINK_CLASSES, BlockingScheme, PipelineConfig, ReasoningPipeline
from repro.datagen import CompanySpec, generate_company_graph
from repro.graph import figure1_graph
from repro.linkage import persons_of, train_classifiers
from repro.telemetry import Tracer


@pytest.fixture(scope="module")
def world():
    return generate_company_graph(
        CompanySpec(persons=120, companies=60, seed=21, feature_noise=0.0)
    )


@pytest.fixture(scope="module")
def classifiers(world):
    graph, truth = world
    return train_classifiers(persons_of(graph), truth.links, seed=1)


def light_config(**overrides):
    defaults = dict(first_level_clusters=1, use_embeddings=False)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestLoop:
    def test_augment_does_not_mutate_input(self, world, classifiers):
        graph, _ = world
        before = graph.edge_count
        augmented = ReasoningPipeline(graph, light_config(), classifiers).augment()
        assert graph.edge_count == before
        assert augmented.edge_count > before

    def test_new_edges_typed_and_counted(self, world, classifiers):
        graph, _ = world
        pipeline = ReasoningPipeline(graph, light_config(), classifiers)
        links = pipeline.family_links()
        augmented = pipeline.augment()
        new_edges = [
            edge for edge in augmented.edges() if edge.label in FAMILY_LINK_CLASSES
        ]
        old_edges = [
            edge for edge in graph.edges() if edge.label in FAMILY_LINK_CLASSES
        ]
        assert len(new_edges) - len(old_edges) == len(links)
        for _, _, link_class in links:
            assert link_class in {"partner_of", "sibling_of", "parent_of"}

    def test_finds_planted_links(self, world, classifiers):
        graph, truth = world
        links = ReasoningPipeline(graph, light_config(), classifiers).family_links()
        recall = len(links & truth.links) / len(truth.links)
        assert recall > 0.5

    def test_exhaustive_blocking_is_quadratic(self, world, classifiers):
        graph, _ = world
        tracer = Tracer()
        config = light_config(blocking=BlockingScheme.exhaustive())
        ReasoningPipeline(graph, config, classifiers, tracer=tracer).family_links()
        persons = sum(1 for _ in graph.persons())
        # every ordered person pair once per class
        assert traced_comparisons(tracer) == (
            len(FAMILY_LINK_CLASSES) * persons * (persons - 1)
        )


class TestWithControlRule:
    def test_control_edges_added(self):
        graph = figure1_graph()
        config = light_config(blocking=BlockingScheme.exhaustive())
        augmented = ReasoningPipeline(graph, config).augment()
        control_pairs = {
            (e.source, e.target) for e in augmented.edges() if e.label == "control"
        }
        assert ("P1", "F") in control_pairs
        assert ("P2", "I") in control_pairs
        assert not any(target == "L" for _, target in control_pairs)
