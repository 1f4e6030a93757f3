"""Recall methodology of Section 6.2 (Figure 4(e)).

The paper's protocol, reproduced step by step on the served program
(:meth:`ReasoningPipeline.family_links`):

1. run in *no-cluster mode* (one cluster, exhaustive pairwise
   comparison) to produce all theoretically possible links — this
   augmented graph is the self-consistent ground truth ``S+``;
2. randomly remove a fraction (20%) of the predicted links;
3. re-run with ``k`` clusters;
4. recall = recovered predicted links / links predicted in no-cluster
   mode.

Because the pair decisions are deterministic, any loss of recall is
attributable to the clustering assigning the two endpoints of a link to
different blocks — exactly the trade-off Figure 4(e) quantifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ..core.blocking import BlockingScheme, age_banded_person_blocker
from ..core.pipeline import PipelineConfig, ReasoningPipeline
from ..graph.company_graph import CompanyGraph
from ..linkage.bayes import BayesianLinkClassifier
from ..telemetry import Tracer
from .harness import timed, traced_comparisons

LinkTriple = tuple[object, object, str]


@dataclass
class RecallPoint:
    """Recall measured at one cluster count."""

    clusters: int
    recall: float
    comparisons: int
    elapsed_seconds: float


def no_cluster_ground_truth(
    graph: CompanyGraph,
    classifiers: Sequence[BayesianLinkClassifier],
    config: PipelineConfig | None = None,
) -> set[LinkTriple]:
    """Step 1: exhaustive (single-cluster, single-block) detection."""
    exhaustive = replace(
        config if config is not None else PipelineConfig(),
        first_level_clusters=1,
        use_embeddings=False,
        blocking=BlockingScheme.exhaustive(),
    )
    return ReasoningPipeline(graph, exhaustive, classifiers).family_links()


def recall_at_clusters(
    graph: CompanyGraph,
    classifiers: Sequence[BayesianLinkClassifier],
    truth_links: set[LinkTriple],
    clusters: int,
    config: PipelineConfig | None = None,
    removal_fraction: float = 0.2,
    seed: int = 0,
    blocker_factory: Callable[[int], BlockingScheme] | None = None,
) -> RecallPoint:
    """Steps 2-4 for one cluster count ``k``.

    Following Section 6.1's technique, the *number of clusters* is
    controlled by folding the second-level feature mapping into ``k``
    blocks (``blocker_factory``); the first level stays active (up to 8
    clusters, when ``config`` embeds) so both levels are exercised.
    """
    rng = random.Random(seed)
    removable = sorted(truth_links, key=str)
    rng.shuffle(removable)
    removed = set(removable[: int(len(removable) * removal_fraction)])

    # the evaluation graph starts from the ground truth *minus* removed links
    working = graph.copy()
    for x, y, label in truth_links - removed:
        if working.has_node(x) and working.has_node(y):
            working.add_edge(x, y, label)

    if blocker_factory is None:
        blocking = BlockingScheme({"P": age_banded_person_blocker(clusters)})
    else:
        blocking = blocker_factory(clusters)
    base = config if config is not None else PipelineConfig()
    clustered = replace(
        base,
        first_level_clusters=max(1, min(clusters, 8)),
        use_embeddings=base.use_embeddings and clusters > 1,
        blocking=blocking,
    )
    tracer = Tracer()
    found, elapsed = timed(
        lambda: ReasoningPipeline(working, clustered, classifiers, tracer=tracer).family_links()
    )
    recall = len(found & removed) / len(removed) if removed else 1.0
    return RecallPoint(
        clusters=clusters,
        recall=recall,
        comparisons=traced_comparisons(tracer),
        elapsed_seconds=elapsed,
    )


def recall_curve(
    graph: CompanyGraph,
    classifiers: Sequence[BayesianLinkClassifier],
    cluster_counts: Sequence[int],
    config: PipelineConfig | None = None,
    removal_fraction: float = 0.2,
    repeats: int = 3,
    seed: int = 0,
) -> list[RecallPoint]:
    """The full Figure 4(e) sweep, averaging ``repeats`` removals per k."""
    truth = no_cluster_ground_truth(graph, classifiers, config)
    points: list[RecallPoint] = []
    for clusters in cluster_counts:
        recalls: list[float] = []
        comparisons = 0
        elapsed = 0.0
        for repeat in range(repeats):
            point = recall_at_clusters(
                graph, classifiers, truth, clusters, config,
                removal_fraction, seed=seed * 1000 + repeat,
            )
            recalls.append(point.recall)
            comparisons += point.comparisons
            elapsed += point.elapsed_seconds
        points.append(
            RecallPoint(
                clusters=clusters,
                recall=sum(recalls) / len(recalls),
                comparisons=comparisons // repeats,
                elapsed_seconds=elapsed / repeats,
            )
        )
    return points
