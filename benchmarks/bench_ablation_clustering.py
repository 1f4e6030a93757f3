"""Ablation: what does each clustering level buy?

Four configurations of the same family-detection task, each run as the
served family-link program (``ReasoningPipeline.family_links``):

* ``none``       — no clustering at all (exhaustive pairwise comparison);
* ``blocking``   — second-level feature blocking only (paper's
                   #GenerateBlocks);
* ``embedding``  — first-level node2vec clustering only
                   (#GraphEmbedClust);
* ``two-level``  — the full Vada-Link configuration.

Reported per configuration: comparisons, elapsed time, recall against
the exhaustive run's links, and precision / recall against the planted
links (the DESIGN.md ablation of the paper's central design choice:
blocking bounds the quadratic blow-up, embeddings keep related nodes
together).
"""

from repro.bench import (
    Experiment,
    no_cluster_ground_truth,
    precision_recall,
    realworld_like,
    timed,
    traced_comparisons,
)
from repro.core import BlockingScheme, PipelineConfig, ReasoningPipeline
from repro.linkage import persons_of, train_classifiers
from repro.telemetry import Tracer

PERSONS = 250


def test_ablation_clustering_levels(run_once, benchmark):
    graph, truth = realworld_like(PERSONS, seed=29)
    classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)

    configurations = {
        "none": PipelineConfig(
            first_level_clusters=1, use_embeddings=False,
            blocking=BlockingScheme.exhaustive(),
        ),
        "blocking": PipelineConfig(first_level_clusters=1, use_embeddings=False),
        "embedding": PipelineConfig(
            first_level_clusters=8, blocking=BlockingScheme.exhaustive(),
        ),
        "two-level": PipelineConfig(first_level_clusters=8),
    }

    def run(config, tracer=None):
        return ReasoningPipeline(graph, config, classifiers, tracer=tracer).family_links()

    exhaustive_links = no_cluster_ground_truth(graph, classifiers)
    experiment = Experiment("Ablation — clustering levels", "configuration")
    results = {}
    for name, config in configurations.items():
        tracer = Tracer()
        found, elapsed = timed(lambda: run(config, tracer))
        comparisons = traced_comparisons(tracer)
        recall = len(found & exhaustive_links) / max(len(exhaustive_links), 1)
        precision, planted_recall = precision_recall(found, truth.links)
        results[name] = (comparisons, elapsed, recall)
        experiment.record(name, comparisons=comparisons, seconds=elapsed, recall=recall,
                          precision=precision, planted_recall=planted_recall)
    print()
    experiment.print()

    # blocking slashes comparisons versus exhaustive
    assert results["blocking"][0] < results["none"][0] / 5
    # two-level keeps most of the exhaustive recall
    assert results["two-level"][2] > 0.6
    # blocking-only recall is at least as good as two-level (no first-level
    # splits); two-level stays far below the exhaustive comparisons
    assert results["blocking"][2] >= results["two-level"][2] - 1e-9
    assert results["two-level"][0] < results["none"][0] / 3

    run_once(benchmark, lambda: run(configurations["blocking"]))
