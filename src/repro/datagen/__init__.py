"""Synthetic data: scale-free generators and the Italian-company surrogate."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "barabasi": ("barabasi_albert_edges", "barabasi_company_graph"),
    "company_generator": (
        "CompanySpec", "DENSITY_PRESETS", "generate_company_graph", "GroundTruth",
    ),
    "distributions": (
        "clipped_normal", "power_law_int", "random_shares", "zipf_choice", "zipf_sampler",
    ),
})
