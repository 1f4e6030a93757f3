"""Figure 4(a): Vada-Link elapsed time vs number of nodes (real-world-like
data) against the naive all-pairs baseline.

Paper: 20 subsets of the Italian company graph with 1k-100k person nodes;
Vada-Link grows slightly more than linearly (<20 s at 10k nodes) and stays
far below the quadratic naive curve.

Here: surrogate graphs with the same sparse scale-free profile, 100 to
16 000 persons, each run the served family-link program
(``ReasoningPipeline.family_links`` with 8 first-level clusters and the
default blocking).  The naive baseline is executed up to the size where
it is already clearly quadratic and reported as pair-counts beyond that.
``maxrss_mb`` is the process's ``ru_maxrss`` after each size (sizes
ascend, so it is that size's peak).
"""

import resource

from repro.bench import (
    FIG4A_SIZES,
    Experiment,
    naive_comparison_count,
    naive_family_detection,
    precision_recall,
    realworld_like,
    timed,
    traced_comparisons,
)
from repro.core import PipelineConfig, ReasoningPipeline
from repro.linkage import persons_of, train_classifiers
from repro.telemetry import Tracer

NAIVE_LIMIT = 400  # run the quadratic baseline only up to this size
CONFIG = PipelineConfig(first_level_clusters=8)


def family_run(graph, classifiers, tracer=None):
    return ReasoningPipeline(graph, CONFIG, classifiers, tracer=tracer).family_links()


def test_fig4a_time_vs_nodes(run_once, benchmark):
    experiment = Experiment("Figure 4(a) — time vs nodes (real-world-like)", "persons")
    series = []
    benchmark_graph = None
    benchmark_classifiers = None
    for persons in FIG4A_SIZES:
        graph, truth = realworld_like(persons, seed=7)
        classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)
        if persons == FIG4A_SIZES[2]:
            benchmark_graph, benchmark_classifiers = graph, classifiers
        tracer = Tracer()
        links, elapsed = timed(lambda: family_run(graph, classifiers, tracer))
        precision, recall = precision_recall(links, truth.links)
        metrics = {
            "vadalink_s": elapsed,
            "comparisons": traced_comparisons(tracer),
            "naive_pairs": naive_comparison_count(persons),
            "links": len(links),
            "precision": precision,
            "recall": recall,
        }
        if persons <= NAIVE_LIMIT:
            _, naive_elapsed = timed(lambda: naive_family_detection(graph, classifiers))
            metrics["naive_s"] = naive_elapsed
        metrics["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        series.append((persons, elapsed))
        experiment.record(persons, **metrics)
    print()
    experiment.print()
    print(experiment.ascii_plot("vadalink_s", logx=True, logy=True))

    # shape: far sub-quadratic — time ratio across the size range stays
    # well below the growth a quadratic algorithm would show
    first_size, first_time = series[0]
    last_size, last_time = series[-1]
    growth = last_time / max(first_time, 1e-9)
    quadratic_growth = (last_size / first_size) ** 2
    assert growth < quadratic_growth / 3, (
        f"growth {growth:.1f}x at {last_size // first_size}x nodes looks quadratic"
    )
    # clustered comparisons stay far below the naive pair count
    for measurement in experiment.measurements:
        assert measurement.metrics["comparisons"] < measurement.metrics["naive_pairs"] / 2

    run_once(benchmark, lambda: family_run(benchmark_graph, benchmark_classifiers))
