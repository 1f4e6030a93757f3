"""Figure 4(c): elapsed time vs number (and size) of clusters.

Paper: the feature mapping is hijacked to fold persons into k = 1..500
second-level clusters of decreasing size; elapsed time falls steeply as
clusters multiply (under 10 s past ~10 clusters in the paper's setup),
because comparisons shrink quadratically with block size.

Here: same protocol — `person_blocker(k)` folds the feature hash modulo
k, and each run is the served family-link program
(``ReasoningPipeline.family_links``).  The first-level embedding stage
is disabled to isolate the second-level clustering variable, as by
construction `#GenerateBlocks` only depends on node features.
"""

from repro.bench import (
    CLUSTER_SWEEP,
    Experiment,
    check_shape,
    precision_recall,
    realworld_like,
    timed,
    traced_comparisons,
)
from repro.core import BlockingScheme, PipelineConfig, ReasoningPipeline, person_blocker
from repro.linkage import persons_of, train_classifiers
from repro.telemetry import Tracer

PERSONS = 600


def test_fig4c_time_vs_clusters(run_once, benchmark):
    graph, truth = realworld_like(PERSONS, seed=13)
    classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)

    def run(k: int, tracer=None):
        config = PipelineConfig(
            first_level_clusters=1,
            use_embeddings=False,
            blocking=BlockingScheme({"P": person_blocker(k)}),
        )
        return ReasoningPipeline(graph, config, classifiers, tracer=tracer).family_links()

    experiment = Experiment("Figure 4(c) — time vs number of clusters", "clusters")
    series = []
    for clusters in CLUSTER_SWEEP:
        tracer = Tracer()
        links, elapsed = timed(lambda: run(clusters, tracer))
        precision, recall = precision_recall(links, truth.links)
        series.append((clusters, elapsed))
        experiment.record(clusters, seconds=elapsed, comparisons=traced_comparisons(tracer),
                          precision=precision, recall=recall)
    print()
    experiment.print()
    print(experiment.ascii_plot("seconds", logx=True))

    # shape: elapsed time decreases (noisily) as the cluster count grows
    assert series[0][1] > series[-1][1], "1 cluster must cost more than 500"
    comparisons = experiment.series("comparisons")
    assert check_shape(comparisons, "non-increasing", tolerance=0.10)
    # the single-cluster point dominates everything past 10 clusters
    past_ten = [seconds for clusters, seconds in series if clusters >= 10]
    assert all(seconds < series[0][1] for seconds in past_ten)

    run_once(benchmark, lambda: run(20))
