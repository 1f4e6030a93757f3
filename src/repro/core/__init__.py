"""Vada-Link core: the KG-augmentation framework (Sections 4 and 5)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "blocking": (
        "age_banded_person_blocker", "BlockingScheme", "company_blocker", "default_person_blocker",
        "feature_blocker", "household_blocker", "multi_blocker", "narrow_person_blocker",
        "person_blocker", "phonetic_person_blocker", "single_block", "stable_hash",
    ),
    "explain": ("explain_close_link", "explain_control", "explain_family_link", "Explanation"),
    "kg": ("KnowledgeGraph",),
    "pipeline": ("FAMILY_LINK_CLASSES", "PipelineConfig", "ReasoningPipeline"),
    "programs": (
        "accumulated_ownership_program", "blocking_program", "close_link_program",
        "control_program", "DEFAULT_LINK_CLASSES", "family_close_link_program",
        "family_control_program", "family_link_program", "full_ownership_program",
        "influence_program", "input_mapping", "link_creation", "output_mapping",
        "paper_close_link_program",
    ),
})
