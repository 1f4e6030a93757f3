"""Experiment harness: timers, workloads, baselines, recall protocol."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "harness": (
        "check_shape", "Experiment", "Measurement", "timed", "timed_repeat", "timed_traced",
    ),
    "naive": ("naive_comparison_count", "naive_family_detection"),
    "recall": (
        "no_cluster_ground_truth", "predicted_links", "recall_at_clusters", "recall_curve",
        "RecallPoint",
    ),
    "workloads": (
        "CLUSTER_SWEEP", "dense_synthetic", "density_scenario", "DENSITY_SCENARIOS", "FIG4A_SIZES",
        "FIG4B_SIZES", "FIG4D_SIZES", "ownership_pyramid", "realworld_like",
    ),
})
