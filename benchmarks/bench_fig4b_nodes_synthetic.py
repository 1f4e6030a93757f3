"""Figure 4(b): elapsed time vs number of nodes on high-density synthetic
graphs.

Paper: 6 Barabási graphs with 1-10k nodes and much higher density than the
real data; elapsed times one order of magnitude above Figure 4(a) but the
trend is still linear.

Here: the same comparison at reproduction scale, each run the served
family-link program (``ReasoningPipeline.family_links`` with 8
first-level clusters).  The assertions check (i) the dense series is
slower than the sparse one at equal size and (ii) growth remains
clearly sub-quadratic.
"""

from repro.bench import (
    Experiment,
    dense_synthetic,
    precision_recall,
    realworld_like,
    timed,
    traced_comparisons,
)
from repro.core import PipelineConfig, ReasoningPipeline
from repro.linkage import persons_of, train_classifiers
from repro.telemetry import Tracer

SIZES = (100, 200, 400, 800)
CONFIG = PipelineConfig(first_level_clusters=8)


def family_run(graph, truth, tracer=None):
    classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)
    return ReasoningPipeline(graph, CONFIG, classifiers, tracer=tracer).family_links()


def test_fig4b_time_vs_nodes_dense(run_once, benchmark):
    experiment = Experiment("Figure 4(b) — time vs nodes (dense synthetic)", "persons")
    dense_series = []
    sparse_at_max = None
    for persons in SIZES:
        graph, truth = dense_synthetic(persons, seed=11)
        tracer = Tracer()
        links, elapsed = timed(lambda: family_run(graph, truth, tracer))
        precision, recall = precision_recall(links, truth.links)
        dense_series.append((persons, elapsed))
        experiment.record(persons, dense_s=elapsed, edges=graph.edge_count,
                          comparisons=traced_comparisons(tracer),
                          precision=precision, recall=recall)
    sparse_graph, sparse_truth = realworld_like(SIZES[-1], seed=11)
    _, sparse_at_max = timed(lambda: family_run(sparse_graph, sparse_truth))
    print()
    experiment.print()
    print(f"(sparse reference at {SIZES[-1]} persons: {sparse_at_max:.3f}s)")

    # dense workloads cost more than sparse ones at the same size
    assert dense_series[-1][1] > sparse_at_max * 0.8
    # growth stays sub-quadratic
    growth = dense_series[-1][1] / max(dense_series[0][1], 1e-9)
    quadratic_growth = (SIZES[-1] / SIZES[0]) ** 2
    assert growth < quadratic_growth / 2

    graph, truth = dense_synthetic(SIZES[1], seed=11)
    run_once(benchmark, lambda: family_run(graph, truth))
