"""Workload builders — one per experiment of Section 6.

Each function returns the graph(s) and parameters the corresponding
figure sweeps, scaled to laptop size (the paper itself subsets its 4M-node
graph down to 1k-100k nodes; we subset further so that the pure-Python
substrate finishes in benchmark time — shapes, not absolute times, are
the reproduction target; see EXPERIMENTS.md).
"""

from __future__ import annotations

from ..datagen.barabasi import barabasi_company_graph
from ..datagen.company_generator import CompanySpec, GroundTruth, generate_company_graph
from ..graph.company_graph import CompanyGraph

#: Node-count sweep of Figure 4(a) (paper: 1k-100k persons, 20 sizes).
FIG4A_SIZES = (100, 200, 400, 800, 1600, 3200, 6400, 16000)
#: Node-count sweep of Figure 4(b) (paper: 1-10k nodes, 6 dense graphs).
FIG4B_SIZES = (100, 200, 400, 800, 1200, 1600)
#: Cluster sweep of Figures 4(c)/4(e) (paper: 1-500 clusters).
CLUSTER_SWEEP = (1, 2, 5, 10, 20, 50, 100, 200, 400, 500)
#: Density scenarios of Figure 4(d).
DENSITY_SCENARIOS = ("sparse", "normal", "dense", "superdense")
#: Node sizes of Figure 4(d) (paper: 1-1k nodes).
FIG4D_SIZES = (100, 200, 400, 700, 1000)


def realworld_like(persons: int, seed: int = 0) -> tuple[CompanyGraph, GroundTruth]:
    """A sparse scale-free graph with the Section 2 statistical profile.

    ``persons`` drives the subset size as in Figure 4(a); companies scale
    proportionally (the real graph mixes both roughly 50/50).
    """
    spec = CompanySpec(
        persons=persons,
        companies=max(10, int(persons * 0.8)),
        density="sparse",
        seed=seed,
    )
    return generate_company_graph(spec)


def dense_synthetic(persons: int, seed: int = 0) -> tuple[CompanyGraph, GroundTruth]:
    """Figure 4(b)'s stress graphs: same topology family, much higher density."""
    spec = CompanySpec(
        persons=persons,
        companies=max(10, int(persons * 0.8)),
        density="dense",
        seed=seed,
    )
    return generate_company_graph(spec)


def density_scenario(
    density: str, persons: int, seed: int = 0
) -> tuple[CompanyGraph, GroundTruth]:
    """One of Figure 4(d)'s four density presets at the given size."""
    spec = CompanySpec(
        persons=persons,
        companies=max(10, int(persons * 0.8)),
        density=density,
        seed=seed,
    )
    return generate_company_graph(spec)


def ownership_pyramid(companies: int, m: int = 2, seed: int = 0) -> CompanyGraph:
    """A pure company-company scale-free pyramid (control/close-link benches)."""
    return barabasi_company_graph(companies, m, seed)
