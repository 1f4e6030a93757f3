"""node2vec embeddings and clustering — the paper's first-level grouping."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "incremental": ("IncrementalEmbedder",),
    "kmeans": ("cluster_inertia", "kmeans"),
    "node2vec": ("embed_and_cluster", "feature_token_adjacency", "Node2VecConfig"),
    "skipgram": ("SkipGramModel", "train_skipgram", "update_skipgram"),
    "walks": ("build_adjacency", "generate_walks", "RandomWalker"),
})
