"""node2vec: neighbourhood-preserving node embeddings (Grover & Leskovec).

Pipeline: biased second-order random walks -> skip-gram with negative
sampling -> one dense vector per node -> k-means, which turns the vectors
into the paper's first-level clusters.  :func:`embed_and_cluster` is that
``#GraphEmbedClust`` primitive; it is the cold round of
:class:`~repro.embeddings.incremental.IncrementalEmbedder`, which every
entry point that clusters runs.  The embedding defaults are decided here,
once: :class:`Node2VecConfig`'s own fields and :data:`EMBEDDING_FEATURES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..graph.property_graph import PropertyGraph
from .walks import build_adjacency

NodeId = Hashable

#: per-feature token weights of the embedding: the household signal is
#: sharper than the (Zipf-heavy) surname signal, so address tokens weigh more
EMBEDDING_FEATURES: dict[str, float] = {"surname": 1.0, "address": 3.0}


@dataclass
class Node2VecConfig:
    """Hyper-parameters of the node2vec pipeline, and the one default
    every clustering entry point embeds with."""

    dimensions: int = 24
    walk_length: int = 15
    num_walks: int = 6
    p: float = 1.0
    q: float = 1.0
    window: int = 4
    negative: int = 5
    epochs: int = 2
    learning_rate: float = 0.025
    seed: int = 0


def feature_token_adjacency(
    graph: PropertyGraph,
    feature_properties: "tuple[str, ...] | dict[str, float]",
    weight_property: str = "w",
    token_weight: float = 1.0,
) -> dict[NodeId, list[tuple[NodeId, float]]]:
    """Structural adjacency augmented with feature-token nodes.

    The paper's ``#GraphEmbedClust`` evaluates similarity "on the basis
    of both their features and role in the graph topology".  We realise
    the feature half with the standard bipartite trick: each distinct
    (property, value) becomes a token node linked to every node carrying
    it, so random walks hop between nodes sharing a surname or an address
    even when they are structurally disconnected.
    """
    if isinstance(feature_properties, dict):
        weights = dict(feature_properties)
    else:
        weights = {prop: token_weight for prop in feature_properties}
    adjacency = {
        node: dict(neighbors)
        for node, neighbors in build_adjacency(graph, weight_property).items()
    }
    tokens: dict[NodeId, dict[NodeId, float]] = {}
    for node in graph.nodes():
        for prop, weight in weights.items():
            value = node.properties.get(prop)
            if value is None:
                continue
            token = ("__feature__", prop, value)
            adjacency[node.id][token] = adjacency[node.id].get(token, 0.0) + weight
            tokens.setdefault(token, {})[node.id] = weight
    merged: dict[NodeId, dict[NodeId, float]] = {**adjacency, **tokens}
    return {
        node: sorted(neighbors.items(), key=lambda kv: str(kv[0]))
        for node, neighbors in merged.items()
    }


def embed_and_cluster(
    graph: PropertyGraph,
    clusters: int,
    config: Node2VecConfig | None = None,
    weight_property: str = "w",
    feature_properties: "tuple[str, ...] | dict[str, float]" = (),
    tracer=None,
) -> dict[NodeId, int]:
    """The ``#GraphEmbedClust`` primitive: node -> first-level cluster id.

    Embeds the graph with node2vec (over topology, plus feature tokens
    when ``feature_properties`` is given) and k-means-partitions the
    vectors into ``clusters`` groups — the cold round of an
    :class:`~repro.embeddings.incremental.IncrementalEmbedder`.  With
    ``clusters <= 1`` every node maps to cluster 0 (the paper's "no
    cluster mode").
    """
    from .incremental import IncrementalEmbedder

    return IncrementalEmbedder(
        clusters,
        config,
        feature_properties=feature_properties,
        weight_property=weight_property,
        tracer=tracer,
    ).embed(graph)
