"""Ownership analytics: company control, close links, family control.

These are the reference (procedural) implementations of the paper's
Definitions 2.3, 2.5, 2.6, 2.8 and 2.9.  The declarative Vadalog
programs in :mod:`repro.core.programs` are cross-validated against them.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "close_links": (
        "accumulated_ownership", "accumulated_ownership_from", "all_accumulated_ownership",
        "close_link_pairs", "CLOSE_LINK_THRESHOLD", "close_links", "CloseLink", "closely_linked",
        "is_acyclic",
    ),
    "control": (
        "control_chain", "control_closure", "CONTROL_THRESHOLD", "controlled_by", "controls",
        "group_controlled",
    ),
    "family_control": (
        "all_family_close_links", "all_family_control", "families_from_graph", "family_close_links",
        "family_controlled",
    ),
    "groups": (
        "connected_clients", "control_groups", "ControlGroup", "group_exposure",
        "ultimate_controller",
    ),
    "matrix": (
        "integrated_ownership", "integrated_ownership_from", "integrated_ownership_matrix",
        "ownership_matrix",
    ),
    "paths": ("path_weight", "PathBudgetExceeded", "simple_paths"),
    "ubo": (
        "all_beneficial_owners", "beneficial_owners", "BeneficialOwner", "opaque_companies",
        "UBO_THRESHOLD",
    ),
})
