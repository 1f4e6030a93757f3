"""Figure 4(d): elapsed time vs graph density.

Paper: four synthetic scenarios — sparse, normal, dense, superdense —
over 1-1k nodes; sparse/normal/dense track each other while superdense
is markedly slower, with superlinear growth for the denser scenarios.
The discussion attributes density sensitivity to (i) node2vec's walks
and (ii) the ``Candidate`` implementations — noting that *family
detection* scales well with density while *close links* (path
enumeration) are the challenging case.

We therefore report two series per density preset, each timing what
``serve`` answers from:

* ``fam_s`` — the family-link program
  (``ReasoningPipeline.family_links`` with 6 first-level clusters;
  expected nearly flat across densities, the paper's own remark), with
  its precision and recall against the planted links;
* ``cl_s``  — ``repro.ownership.close_link_pairs`` (exact accumulated
  ownership by a DP over the SCC condensation, no path-depth bound).
"""

from repro.bench import (
    DENSITY_SCENARIOS,
    Experiment,
    density_scenario,
    precision_recall,
    timed,
)
from repro.core import PipelineConfig, ReasoningPipeline
from repro.linkage import persons_of, train_classifiers
from repro.ownership import close_link_pairs

SIZES = (100, 200, 300)
CONFIG = PipelineConfig(first_level_clusters=6)


def family_run(graph, classifiers):
    return ReasoningPipeline(graph, CONFIG, classifiers).family_links()


def test_fig4d_time_vs_density(run_once, benchmark):
    experiment = Experiment("Figure 4(d) — time vs density", "persons")
    family_times: dict[str, list[float]] = {}
    close_times: dict[str, list[float]] = {}
    for persons in SIZES:
        row = {}
        for density in DENSITY_SCENARIOS:
            graph, truth = density_scenario(density, persons, seed=17)
            classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)
            links, family_elapsed = timed(lambda: family_run(graph, classifiers))
            _, close_elapsed = timed(lambda: close_link_pairs(graph))
            precision, recall = precision_recall(links, truth.links)
            row[f"{density[:5]}_fam_s"] = family_elapsed
            row[f"{density[:5]}_p/r"] = f"{precision:.2f}/{recall:.2f}"
            row[f"{density[:5]}_cl_s"] = close_elapsed
            family_times.setdefault(density, []).append(family_elapsed)
            close_times.setdefault(density, []).append(close_elapsed)
        experiment.record(persons, **row)
    print()
    experiment.print()

    last = len(SIZES) - 1
    # close links: superdense must be the slowest scenario
    assert close_times["superdense"][last] == max(
        close_times[d][last] for d in DENSITY_SCENARIOS
    ), "superdense close-link detection must be the slowest scenario"
    assert close_times["superdense"][last] > close_times["sparse"][last] * 1.5
    assert close_times["superdense"][last] > close_times["normal"][last] * 1.5
    # and superdense grows superlinearly in size (3x the persons)
    assert close_times["superdense"][last] > close_times["superdense"][0] * 3
    # family detection stays comparatively flat across densities (the
    # paper's own observation about this step)
    assert family_times["superdense"][last] < family_times["sparse"][last] * 3

    graph, _ = density_scenario("superdense", SIZES[0], seed=17)
    run_once(benchmark, lambda: close_link_pairs(graph))
