"""Columnar graph core: one interned representation shared by every layer.

The paper's architecture (Section 5) has *one* extensional graph feeding
every reasoning task, but historically each of our layers re-derived a
private copy of it: the walker built a dict-of-dicts adjacency and an
internal CSR, integrated ownership rebuilt a ``lil_matrix`` per solve,
the relational mapping re-iterated node/edge objects into facts, and a
service snapshot precomputed all of these per version.  A
:class:`GraphFrame` is the shared substrate instead — the frame/COO-to-
CSR discipline of scipy.sparse and PyG:

* **interning** — every node id gets a stable integer code.  The intern
  order is deterministic and collision-free: ids sort by
  ``(str(id), type, repr(id))``, so the historical ``sorted(key=str)``
  ownership-matrix order is preserved exactly on collision-free graphs
  while ids that stringify identically (``1`` vs ``"1"``) break the tie
  by type instead of by dict iteration order;
* **edge columns** — contiguous numpy arrays for source code, target
  code, label and weight, in edge insertion order;
* **views** — the merged-undirected adjacency (and its lockstep-walk
  CSR) the node2vec walker needs, the direct-ownership matrix ``W``,
  label partitions and per-property columns — all materialised lazily
  and cached on the frame.

Frames are obtained through :meth:`GraphFrame.of`, which caches the
frame on the graph object keyed by the graph's ``generation`` counter:
every consumer asking for the same graph version shares one frame (and
therefore one CSR, one ``W``, ...), and any mutation through the
:class:`~repro.graph.property_graph.PropertyGraph` write surface makes
the next ``of`` call rebuild.  A frame captures node/edge object
references at build time, so a superseded frame keeps serving a
consistent snapshot of the version it was built from.

Bit-identity contract: every view reproduces the numbers of the legacy
per-consumer builds exactly — same neighbour order, same float
accumulation order for merged parallel edges — asserted by the oracle
suite in ``tests/test_graph_columnar.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .company_graph import SHAREHOLDING
from .property_graph import NodeId, PropertyGraph

if TYPE_CHECKING:  # pragma: no cover
    from scipy.sparse import csc_matrix

#: attribute under which frames are cached on the graph object
_CACHE_ATTR = "_columnar_frames"


def intern_sort_key(node: NodeId) -> tuple[str, str, str]:
    """Deterministic, collision-free node ordering key.

    Primary key is ``str(node)`` — the historical ownership-matrix order
    — then the type name and ``repr`` break ties between distinct ids
    that stringify identically (``1`` vs ``"1"`` vs ``True``), which the
    old ``sorted(key=str)`` left to dict iteration order.
    """
    return (str(node), type(node).__qualname__, repr(node))


def neighbor_sort_key(item: tuple[NodeId, Any]) -> str:
    """Adjacency-list neighbour order: identical to sorting by ``str(node)``,
    without allocating a fresh string per comparison for the (ubiquitous)
    string-id case."""
    node = item[0]
    return node if type(node) is str else str(node)


def build_walker_csr(adjacency: dict[NodeId, list[tuple[NodeId, float]]]) -> tuple:
    """Int-indexed CSR view of a walker adjacency for lockstep stepping.

    ``keys[indptr[i] + j] = i + cum_ij / total_i`` is globally monotone,
    so one ``searchsorted`` resolves a whole batch of next-step draws
    (query ``i + u``); positions are clipped back into their row to
    absorb boundary ties.  (Moved here from ``RandomWalker._ensure_csr``
    so the frame can own and share the buffers.)
    """
    node_list = list(adjacency)
    n = len(node_list)
    node_index = {node: i for i, node in enumerate(node_list)}
    counts: list[int] = []
    flat_index: list[int] = []
    flat_weights: list[float] = []
    for node in node_list:
        neighbors = adjacency[node]
        counts.append(len(neighbors))
        flat_index.extend(node_index[neighbor] for neighbor, _ in neighbors)
        flat_weights.extend(weight for _, weight in neighbors)
    degrees = np.asarray(counts, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    neighbors_arr = np.asarray(flat_index, dtype=np.int64)
    if neighbors_arr.size:
        # segmented cumulative weights, normalised per row and offset by
        # the row index (exact row end: i + 1.0)
        cum = np.concatenate(
            ([0.0], np.cumsum(np.asarray(flat_weights, dtype=np.float64)))
        )
        row_base = np.repeat(cum[indptr[:-1]], degrees)
        totals = np.repeat(cum[indptr[1:]] - cum[indptr[:-1]], degrees)
        row_of = np.repeat(np.arange(n, dtype=np.float64), degrees)
        keys = row_of + (cum[1:] - row_base) / totals
        nonempty = degrees > 0
        keys[indptr[1:][nonempty] - 1] = (
            np.arange(n, dtype=np.float64)[nonempty] + 1.0
        )
    else:
        keys = np.empty(0, dtype=np.float64)
    node_objects = np.empty(n, dtype=object)
    node_objects[:] = node_list
    return (node_list, node_index, indptr, neighbors_arr, keys, degrees, node_objects)


class GraphFrame:
    """One immutable columnar view of a graph version.

    Cheap to build (one pass over nodes + edges), everything else lazy.
    All derived views are cached on the frame, so sharing the frame means
    sharing the views.  Do not mutate returned arrays or dicts.
    """

    def __init__(self, graph: PropertyGraph, weight_property: str = "w"):
        self.weight_property = weight_property
        self.generation = graph.generation
        node_objects = list(graph.nodes())
        order = sorted(range(len(node_objects)),
                       key=lambda i: intern_sort_key(node_objects[i].id))
        #: node objects / ids in intern order
        self._node_objects = [node_objects[i] for i in order]
        self.nodes: list[NodeId] = [node.id for node in self._node_objects]
        #: node id -> intern code
        self.index: dict[NodeId, int] = {node: i for i, node in enumerate(self.nodes)}
        #: intern codes in graph insertion order (the legacy iteration order)
        self.insertion_codes = np.empty(len(order), dtype=np.int64)
        for intern_code, insertion_pos in enumerate(order):
            self.insertion_codes[insertion_pos] = intern_code
        self.node_labels = np.empty(len(self.nodes), dtype=object)
        for code, node in enumerate(self._node_objects):
            self.node_labels[code] = node.label

        edges = list(graph.edges())
        self._edge_objects = edges
        m = len(edges)
        self.edge_src = np.empty(m, dtype=np.int64)
        self.edge_dst = np.empty(m, dtype=np.int64)
        self.edge_labels = np.empty(m, dtype=object)
        #: the walker's weight semantics: missing / None / 0 -> 1.0
        self.walk_weights = np.empty(m, dtype=np.float64)
        index = self.index
        for pos, edge in enumerate(edges):
            self.edge_src[pos] = index[edge.source]
            self.edge_dst[pos] = index[edge.target]
            self.edge_labels[pos] = edge.label
            self.walk_weights[pos] = float(edge.properties.get(weight_property, 1.0) or 1.0)

        # lazy caches
        self._undirected: dict[NodeId, list[tuple[NodeId, float]]] | None = None
        self._walker_csr: tuple | None = None
        self._share_coo: tuple | None = None
        self._ownership_w: "csc_matrix | None" = None
        self._node_columns: dict[str, np.ndarray] = {}
        self._edge_columns: dict[str, np.ndarray] = {}
        self._label_members: dict[str | None, np.ndarray] = {}

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, graph: PropertyGraph, weight_property: str = "w") -> "GraphFrame":
        """The cached frame of ``graph``'s current generation.

        Builds at most one frame per (graph version, weight property);
        consumers calling ``of`` with the same arguments share buffers.
        """
        cache = graph.__dict__.setdefault(_CACHE_ATTR, {})
        frame = cache.get(weight_property)
        if frame is None or frame.generation != graph.generation:
            frame = cls(graph, weight_property)
            cache[weight_property] = frame
        return frame

    def is_current(self, graph: PropertyGraph) -> bool:
        """Whether this frame still reflects ``graph``'s live state."""
        return self.generation == graph.generation

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edge_objects)

    # ------------------------------------------------------------------
    # the walker's merged-undirected view
    # ------------------------------------------------------------------

    def undirected_adjacency(self) -> dict[NodeId, list[tuple[NodeId, float]]]:
        """The node2vec adjacency: undirected, parallel edges merged by sum.

        Bit-identical to the historical ``build_adjacency``: keys iterate
        in graph insertion order, neighbour lists sort by ``str(id)``,
        and parallel/reciprocal weights accumulate in edge insertion
        order.  Treat as read-only — the dict is shared by every consumer
        of this frame (``build_adjacency`` hands out copies).
        """
        if self._undirected is None:
            merged: dict[NodeId, dict[NodeId, float]] = {
                self.nodes[code]: {} for code in self.insertion_codes
            }
            nodes = self.nodes
            weights = self.walk_weights.tolist()
            for pos, (i, j) in enumerate(zip(self.edge_src.tolist(), self.edge_dst.tolist())):
                if i == j:
                    continue
                a, b = nodes[i], nodes[j]
                weight = weights[pos]
                forward = merged[a]
                forward[b] = forward.get(b, 0.0) + weight
                backward = merged[b]
                backward[a] = backward.get(a, 0.0) + weight
            self._undirected = {
                node: sorted(neighbors.items(), key=neighbor_sort_key)
                for node, neighbors in merged.items()
            }
        return self._undirected

    def walker_csr(self) -> tuple:
        """The lockstep-walk CSR over :meth:`undirected_adjacency`, cached."""
        if self._walker_csr is None:
            self._walker_csr = build_walker_csr(self.undirected_adjacency())
        return self._walker_csr

    # ------------------------------------------------------------------
    # ownership views
    # ------------------------------------------------------------------

    def shareholding_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shareholding edges as ``(src_codes, dst_codes, shares)`` columns.

        Edge insertion order; a missing ``w`` maps to 0.0 exactly like
        the legacy ``edge.get("w", 0.0)``.
        """
        if self._share_coo is None:
            positions = [
                pos for pos, label in enumerate(self.edge_labels.tolist())
                if label == SHAREHOLDING
            ]
            shares = np.empty(len(positions), dtype=np.float64)
            for out, pos in enumerate(positions):
                shares[out] = float(self._edge_objects[pos].properties.get("w", 0.0))
            idx = np.asarray(positions, dtype=np.int64)
            self._share_coo = (self.edge_src[idx], self.edge_dst[idx], shares)
        return self._share_coo

    def ownership_w(self) -> "csc_matrix":
        """The direct-ownership matrix ``W`` (CSC), parallel edges summed.

        Duplicate (owner, company) entries accumulate in edge insertion
        order via an unbuffered ``np.add.at`` — the same left-to-right
        float additions the legacy ``lil_matrix[i, j] += w`` loop made,
        so every cell is bit-identical.
        """
        if self._ownership_w is None:
            from scipy.sparse import csc_matrix

            n = len(self.nodes)
            src, dst, shares = self.shareholding_coo()
            if src.size == 0:
                self._ownership_w = csc_matrix((n, n))
            else:
                keys = src * np.int64(n) + dst
                unique, inverse = np.unique(keys, return_inverse=True)
                data = np.zeros(len(unique), dtype=np.float64)
                np.add.at(data, inverse, shares)
                self._ownership_w = csc_matrix(
                    (data, (unique // n, unique % n)), shape=(n, n)
                )
        return self._ownership_w

    def ownership_system(self) -> None:
        """Does nothing: integrated ownership factorises no global system
        (one small solve per strongly connected component, in
        :mod:`repro.ownership.close_links`).  Kept only because the
        end-to-end benchmark's graph layer still times this call."""

    # ------------------------------------------------------------------
    # label partitions and property columns (the relational mapping's food)
    # ------------------------------------------------------------------

    def label_members(self, label: str | None) -> np.ndarray:
        """Intern codes of the nodes carrying ``label``, insertion order."""
        members = self._label_members.get(label)
        if members is None:
            labels_by_insertion = self.node_labels[self.insertion_codes]
            if label is None:
                mask = np.asarray(
                    [value is None for value in labels_by_insertion.tolist()], dtype=bool
                )
            else:
                mask = labels_by_insertion == label
            members = self.insertion_codes[mask]
            self._label_members[label] = members
        return members

    def node_property_column(self, prop: str) -> np.ndarray:
        """Object column of ``prop`` over nodes, aligned to intern codes
        (missing -> None, like ``properties.get``)."""
        column = self._node_columns.get(prop)
        if column is None:
            column = np.empty(len(self._node_objects), dtype=object)
            for code, node in enumerate(self._node_objects):
                column[code] = node.properties.get(prop)
            self._node_columns[prop] = column
        return column

    def edge_property_column(self, prop: str) -> np.ndarray:
        """Object column of ``prop`` over edges, edge insertion order."""
        column = self._edge_columns.get(prop)
        if column is None:
            column = np.empty(len(self._edge_objects), dtype=object)
            for pos, edge in enumerate(self._edge_objects):
                column[pos] = edge.properties.get(prop)
            self._edge_columns[prop] = column
        return column

    def edge_positions(self, label: str | None) -> np.ndarray:
        """Edge-column positions of the edges carrying ``label``."""
        if label is None:
            mask = np.asarray(
                [value is None for value in self.edge_labels.tolist()], dtype=bool
            )
            return np.nonzero(mask)[0]
        return np.nonzero(self.edge_labels == label)[0]

    def __repr__(self) -> str:
        return (
            f"GraphFrame(nodes={len(self.nodes)}, edges={len(self._edge_objects)}, "
            f"generation={self.generation})"
        )
