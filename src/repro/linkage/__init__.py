"""Record-linkage machinery: similarities, feature specs, Bayesian classifier."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bayes": ("BayesianLinkClassifier", "FeatureEstimate", "graham_combination"),
    "features": (
        "default_feature_specs", "FeatureSpec", "LINK_CLASSES", "parent_direction",
        "parent_features", "PARENT_OF", "partner_features", "PARTNER_OF", "sibling_features",
        "SIBLING_OF",
    ),
    "similarity": (
        "absolute_difference", "equality_distance", "jaro", "jaro_winkler", "levenshtein",
        "levenshtein_similarity", "soundex", "soundex_distance", "year_of",
    ),
    "table": ("PersonTable",),
    "topological": (
        "adamic_adar", "common_neighbors", "jaccard_coefficient", "preferential_attachment",
        "score_pairs", "top_predictions",
    ),
    "training": ("default_classifiers", "persons_of", "train_classifiers", "training_pairs"),
})
