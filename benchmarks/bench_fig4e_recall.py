"""Figure 4(e): recall vs number of clusters.

Paper protocol (Section 6.2): run in no-cluster mode to obtain the full
set of predictable links; remove 20% of them at random; re-run with k
clusters; recall = recovered/removed.  Reported: recall maximal at one
cluster, 99.4% at 20 clusters, 98.6% at 50, a slow decrease, and the
approach collapsing under 50% past ~400 clusters.

Here: same protocol via :mod:`repro.bench.recall` on the served
family-link program, averaged over removal repeats.  Its precision
against the no-cluster links is 1 by construction (blocking only
removes pairs), so next to it the driver scores each k's run on the
original graph against the planted links (``precision`` /
``planted_recall``).  The assertions pin the published shape:
near-perfect recall through ~20 clusters, monotone-ish slow decay,
sharp loss at the extreme right of the sweep.
"""

from dataclasses import replace

from repro.bench import Experiment, precision_recall, realworld_like, recall_curve
from repro.core import (
    BlockingScheme,
    PipelineConfig,
    ReasoningPipeline,
    age_banded_person_blocker,
)
from repro.linkage import persons_of, train_classifiers

PERSONS = 400
CLUSTERS = (1, 2, 5, 10, 20, 50, 100, 200, 400, 500)
CONFIG = PipelineConfig(first_level_clusters=1, use_embeddings=False)


def test_fig4e_recall_vs_clusters(run_once, benchmark):
    graph, truth = realworld_like(PERSONS, seed=23)
    classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)

    points = recall_curve(
        graph, classifiers, CLUSTERS, config=CONFIG, removal_fraction=0.2, repeats=2, seed=5
    )

    experiment = Experiment("Figure 4(e) — recall vs number of clusters", "clusters")
    paper = {1: 1.0, 20: 0.994, 50: 0.986, 400: "<0.5", 500: "<0.5"}
    for point in points:
        blocking = BlockingScheme({"P": age_banded_person_blocker(point.clusters)})
        links = ReasoningPipeline(
            graph, replace(CONFIG, blocking=blocking), classifiers
        ).family_links()
        precision, planted_recall = precision_recall(links, truth.links)
        experiment.record(
            point.clusters,
            recall=point.recall,
            comparisons=point.comparisons,
            seconds=point.elapsed_seconds,
            precision=precision,
            planted_recall=planted_recall,
        )
    print()
    experiment.print()
    print(experiment.ascii_plot("recall", logx=True))
    print(f"(paper reference points: {paper})")

    by_clusters = {p.clusters: p.recall for p in points}
    assert by_clusters[1] == 1.0, "single cluster recovers everything"
    assert by_clusters[20] > 0.9, "recall at 20 clusters should stay near-perfect"
    assert by_clusters[50] > 0.8, "recall at 50 clusters stays high"
    assert by_clusters[500] < by_clusters[20], "extreme clustering loses recall"
    assert by_clusters[500] < 0.8, "hundreds of clusters break recall"

    run_once(
        benchmark,
        lambda: recall_curve(graph, classifiers, (20,), config=CONFIG, repeats=1, seed=5),
    )
