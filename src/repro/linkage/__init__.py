"""Record-linkage machinery: similarities, feature specs, Bayesian classifier."""

from .bayes import (
    BayesianLinkClassifier,
    FeatureEstimate,
    graham_combination,
)
from .features import (
    LINK_CLASSES,
    PARENT_OF,
    PARTNER_OF,
    SIBLING_OF,
    FeatureSpec,
    default_feature_specs,
    parent_direction,
    parent_features,
    partner_features,
    sibling_features,
)
from .table import PersonTable
from .topological import (
    adamic_adar,
    common_neighbors,
    jaccard_coefficient,
    preferential_attachment,
    score_pairs,
    top_predictions,
)
from .training import (
    default_classifiers,
    persons_of,
    train_classifiers,
    training_pairs,
)
from .similarity import (
    absolute_difference,
    equality_distance,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    soundex,
    soundex_distance,
    year_of,
)

__all__ = [
    "BayesianLinkClassifier",
    "FeatureEstimate",
    "FeatureSpec",
    "LINK_CLASSES",
    "PARENT_OF",
    "PARTNER_OF",
    "PersonTable",
    "SIBLING_OF",
    "absolute_difference",
    "default_feature_specs",
    "equality_distance",
    "graham_combination",
    "jaro",
    "jaro_winkler",
    "levenshtein",
    "levenshtein_similarity",
    "soundex",
    "soundex_distance",
    "parent_features",
    "partner_features",
    "sibling_features",
    "year_of",
    "default_classifiers",
    "persons_of",
    "train_classifiers",
    "training_pairs",
    "parent_direction",
    "adamic_adar",
    "common_neighbors",
    "jaccard_coefficient",
    "preferential_attachment",
    "score_pairs",
    "top_predictions",
]
