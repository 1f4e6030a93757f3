"""``#GraphEmbedClust``, cold on first use and incremental afterwards.

:class:`IncrementalEmbedder` is the one implementation of the primitive:
its cold round is :func:`~repro.embeddings.node2vec.embed_and_cluster`,
which the reasoning pipeline runs, and the service's snapshot builder
keeps one alive between snapshot builds.  A publish changes a few edges
of the graph the previous build embedded; a full re-embedding would
re-sample every walk, re-materialise the whole pair corpus, re-train
SGNS from random vectors and re-seed k-means.  A publish that adds a
handful of edges perturbs the walk distribution only near those edges,
so the embedder keeps the expensive state between builds and redoes
only the dirty part:

* **adjacency** (including the feature-token bipartite structure) is
  updated in place with the build's new edges;
* **walks** are cached per start node; only nodes within
  :attr:`~IncrementalEmbedder.DIRTY_HOPS` structural hops of a new edge
  are re-sampled — the walk kernel gives every (node, walk-index) pair
  its own RNG stream, so the untouched walks stay valid;
* the **SGNS model** warm-starts from the previous build's vectors and
  trains only on the re-sampled walks (the global negative-sampling
  distribution is maintained incrementally from per-start counts);
* **k-means** warm-starts Lloyd iteration from the previous centroids.

Cached walks whose *trajectory* crosses the dirty region (but whose
start lies outside it) are kept — a deliberate approximation bounded by
``DIRTY_HOPS``; ``embed(graph)`` without new edges re-embeds cold.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from ..graph.columnar import GraphFrame
from ..graph.property_graph import Edge, PropertyGraph
from ..telemetry import NULL_TRACER
from .kmeans import kmeans
from .node2vec import Node2VecConfig, feature_token_adjacency
from .skipgram import SkipGramModel, train_skipgram, update_skipgram
from .walks import RandomWalker

NodeId = Hashable

_FEATURE_TAG = "__feature__"


def _is_feature_token(node: NodeId) -> bool:
    return isinstance(node, tuple) and len(node) == 3 and node[0] == _FEATURE_TAG


def _stack_vectors(
    model: SkipGramModel, nodes: list[NodeId], dimensions: int
) -> np.ndarray:
    """Stack node vectors into one float32 matrix; unseen nodes get zero
    rows of the same dtype (a float64 zero row would upcast everything)."""
    matrix = np.zeros((len(nodes), dimensions), dtype=np.float32)
    for row, node in enumerate(nodes):
        if node in model.index:
            matrix[row] = model.vector(node)
    return matrix


class IncrementalEmbedder:
    """Stateful ``#GraphEmbedClust``: cold on first use, warm afterwards."""

    #: radius (structural hops) of the dirty region around a new edge
    DIRTY_HOPS = 2

    def __init__(
        self,
        clusters: int,
        config: Node2VecConfig | None = None,
        feature_properties: "tuple[str, ...] | dict[str, float]" = (),
        weight_property: str = "w",
        tracer=None,
    ):
        self.clusters = clusters
        self.config = config if config is not None else Node2VecConfig()
        self.feature_properties = feature_properties
        self.weight_property = weight_property
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cold_rounds = 0
        self.warm_rounds = 0
        self._adjacency: dict[NodeId, dict[NodeId, float]] | None = None
        self._sorted: dict[NodeId, list[tuple[NodeId, float]]] = {}
        self._walks: dict[NodeId, list[list[NodeId]]] = {}
        self._counts: dict[NodeId, int] = {}
        self._start_counts: dict[NodeId, dict[NodeId, int]] = {}
        self._model: SkipGramModel | None = None
        self._centroids: np.ndarray | None = None

    # ------------------------------------------------------------------

    def embed(
        self, graph: PropertyGraph, new_edges: Sequence[Edge] | None = None
    ) -> dict[NodeId, int]:
        """Cluster assignment for ``graph``.

        ``new_edges`` are the edges added since the previous call; when
        given (and state exists) only the dirty region is recomputed.
        With ``new_edges=None`` the embedder recomputes from scratch.
        """
        nodes = list(graph.node_ids())
        if self.clusters <= 1 or len(nodes) <= 1:
            return {node: 0 for node in nodes}
        if self._model is None or new_edges is None:
            return self._embed_cold(graph, nodes)
        return self._embed_warm(graph, nodes, new_edges)

    def reset(self) -> None:
        """Drop all cached state; the next ``embed`` runs cold."""
        self._adjacency = None
        self._sorted = {}
        self._walks = {}
        self._counts = {}
        self._start_counts = {}
        self._model = None
        self._centroids = None

    # ------------------------------------------------------------------

    def _embed_cold(self, graph: PropertyGraph, nodes: list[NodeId]) -> dict[NodeId, int]:
        config = self.config
        self.cold_rounds += 1
        frame: GraphFrame | None = None
        with self.tracer.span("embed.adjacency", mode="cold"):
            if self.feature_properties:
                self._sorted = feature_token_adjacency(
                    graph, self.feature_properties, self.weight_property
                )
            else:
                # no token nodes: the structural adjacency IS the frame's
                # cached view, and the walker shares the frame's CSR
                frame = GraphFrame.of(graph, self.weight_property)
                self._sorted = dict(frame.undirected_adjacency())
            self._adjacency = {
                node: dict(neighbors) for node, neighbors in self._sorted.items()
            }
        walker = RandomWalker(
            frame if frame is not None else self._sorted,
            p=config.p, q=config.q, seed=config.seed,
        )
        starts = list(self._sorted)
        with self.tracer.span("embed.walks", mode="cold") as span:
            all_walks = walker.walks(starts, config.num_walks, config.walk_length)
            span.set("walks", len(all_walks))
        self._walks = {}
        self._counts = {}
        self._start_counts = {}
        for position, start in enumerate(starts):
            chunk = all_walks[position * config.num_walks:(position + 1) * config.num_walks]
            self._store_walks(start, chunk)
        self._model = train_skipgram(
            all_walks,
            dimensions=config.dimensions,
            window=config.window,
            negative=config.negative,
            epochs=config.epochs,
            learning_rate=config.learning_rate,
            seed=config.seed,
            tracer=self.tracer,
        )
        return self._cluster(nodes, warm=False)

    def _embed_warm(
        self, graph: PropertyGraph, nodes: list[NodeId], new_edges: Sequence[Edge]
    ) -> dict[NodeId, int]:
        config = self.config
        self.warm_rounds += 1
        assert self._adjacency is not None and self._model is not None
        with self.tracer.span("embed.adjacency", mode="warm") as span:
            touched = self._apply_edges(new_edges)
            span.set("new_edges", len(new_edges))
        dirty = self._dirty_region(touched)
        walker = RandomWalker(self._sorted, p=config.p, q=config.q, seed=config.seed)
        dirty_starts = sorted((n for n in dirty if n in self._sorted), key=str)
        with self.tracer.span("embed.walks", mode="warm") as span:
            resampled = walker.walks(dirty_starts, config.num_walks, config.walk_length)
            span.set("dirty_nodes", len(dirty_starts))
            span.set("walks", len(resampled))
        for position, start in enumerate(dirty_starts):
            chunk = resampled[position * config.num_walks:(position + 1) * config.num_walks]
            self._store_walks(start, chunk)
        update_skipgram(
            self._model,
            resampled,
            counts=self._counts,
            window=config.window,
            negative=config.negative,
            epochs=config.epochs,
            learning_rate=config.learning_rate,
            seed=config.seed,
            tracer=self.tracer,
        )
        return self._cluster(nodes, warm=True)

    # ------------------------------------------------------------------

    def _store_walks(self, start: NodeId, chunk: list[list[NodeId]]) -> None:
        """Cache a start node's walks, keeping global counts consistent."""
        previous = self._start_counts.get(start)
        if previous:
            for node, count in previous.items():
                remaining = self._counts.get(node, 0) - count
                if remaining > 0:
                    self._counts[node] = remaining
                else:
                    self._counts.pop(node, None)
        contribution: dict[NodeId, int] = {}
        for walk in chunk:
            for node in walk:
                contribution[node] = contribution.get(node, 0) + 1
        for node, count in contribution.items():
            self._counts[node] = self._counts.get(node, 0) + count
        self._start_counts[start] = contribution
        self._walks[start] = chunk

    def _apply_edges(self, new_edges: Iterable[Edge]) -> set[NodeId]:
        """Fold new edges into the cached adjacency; returns touched nodes."""
        assert self._adjacency is not None
        touched: set[NodeId] = set()
        for edge in new_edges:
            if edge.source == edge.target:
                continue
            weight = float(edge.get(self.weight_property, 1.0) or 1.0)
            for a, b in ((edge.source, edge.target), (edge.target, edge.source)):
                neighbors = self._adjacency.setdefault(a, {})
                neighbors[b] = neighbors.get(b, 0.0) + weight
                touched.add(a)
        for node in touched:
            self._sorted[node] = sorted(
                self._adjacency[node].items(), key=lambda kv: str(kv[0])
            )
        return touched

    def _dirty_region(self, touched: set[NodeId]) -> set[NodeId]:
        """Nodes within ``DIRTY_HOPS`` structural hops of a new edge.

        Feature tokens are not traversed (their incident structure did
        not change); walks starting at tokens keep their cached samples.
        """
        assert self._adjacency is not None
        dirty = {node for node in touched if not _is_feature_token(node)}
        frontier = list(dirty)
        for _ in range(self.DIRTY_HOPS):
            next_frontier: list[NodeId] = []
            for node in frontier:
                for neighbor in self._adjacency.get(node, ()):
                    if _is_feature_token(neighbor) or neighbor in dirty:
                        continue
                    dirty.add(neighbor)
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return dirty

    def _cluster(self, nodes: list[NodeId], warm: bool) -> dict[NodeId, int]:
        assert self._model is not None
        config = self.config
        matrix = _stack_vectors(self._model, nodes, config.dimensions)
        with self.tracer.span("embed.kmeans", warm=warm, clusters=self.clusters):
            labels, centroids = kmeans(
                matrix,
                self.clusters,
                seed=config.seed,
                initial_centroids=self._centroids if warm else None,
            )
        self._centroids = centroids
        return {node: int(label) for node, label in zip(nodes, labels)}
