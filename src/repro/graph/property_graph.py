"""Property graphs (Definition 2.1 of the paper).

A property graph has nodes ``N``, edges ``E`` disjoint from ``N``, an
incidence function ``rho`` mapping each edge to a pair of nodes, a partial
labelling ``lambda`` over nodes and edges, and a partial property map
``sigma`` assigning values to (element, property) pairs.

This module keeps the model faithful but pragmatic: node/edge identifiers
are arbitrary hashables, labels are strings, and properties live in plain
dicts.  Adjacency indexes (out/in) are maintained incrementally so that
traversal is O(degree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator

NodeId = Hashable
EdgeId = Hashable


class GraphError(ValueError):
    """Raised on malformed graph operations (duplicate ids, dangling edges...)."""


@dataclass
class Node:
    """A labelled node with a property map."""

    id: NodeId
    label: str | None = None
    properties: dict[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        return self.properties.get(name, default)


@dataclass
class Edge:
    """A labelled, directed edge with a property map."""

    id: EdgeId
    source: NodeId
    target: NodeId
    label: str | None = None
    properties: dict[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        return self.properties.get(name, default)


class PropertyGraph:
    """A directed property graph with incremental adjacency indexes."""

    def __init__(self) -> None:
        self._nodes: dict[NodeId, Node] = {}
        self._edges: dict[EdgeId, Edge] = {}
        self._out: dict[NodeId, list[EdgeId]] = {}
        self._in: dict[NodeId, list[EdgeId]] = {}
        self._next_edge_id = 0
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotone mutation counter — the cache-invalidation contract.

        Every structural write (node/edge add or remove) and every
        property write routed through :meth:`set_property` bumps it;
        derived views (notably :class:`~repro.graph.columnar.GraphFrame`)
        are valid exactly as long as the generation they were built at is
        still current.  Mutating ``node.properties`` dicts directly
        bypasses the counter — use :meth:`set_property` when cached views
        must notice.
        """
        return self._generation

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        node_id: NodeId,
        label: str | None = None,
        **properties: Any,
    ) -> Node:
        """Add a node; raises :class:`GraphError` if the id already exists."""
        if node_id in self._nodes:
            raise GraphError(f"node {node_id!r} already exists")
        node = Node(node_id, label, dict(properties))
        self._generation += 1
        self._nodes[node_id] = node
        self._out[node_id] = []
        self._in[node_id] = []
        return node

    def ensure_node(self, node_id: NodeId, label: str | None = None, **properties: Any) -> Node:
        """Return the node, creating it (with the given label) if missing."""
        node = self._nodes.get(node_id)
        if node is None:
            return self.add_node(node_id, label, **properties)
        return node

    def add_edge(
        self,
        source: NodeId,
        target: NodeId,
        label: str | None = None,
        edge_id: EdgeId | None = None,
        **properties: Any,
    ) -> Edge:
        """Add a directed edge between existing nodes."""
        if source not in self._nodes:
            raise GraphError(f"source node {source!r} does not exist")
        if target not in self._nodes:
            raise GraphError(f"target node {target!r} does not exist")
        if edge_id is None:
            edge_id = f"e{self._next_edge_id}"
            self._next_edge_id += 1
        if edge_id in self._edges:
            raise GraphError(f"edge {edge_id!r} already exists")
        edge = Edge(edge_id, source, target, label, dict(properties))
        self._generation += 1
        self._edges[edge_id] = edge
        self._out[source].append(edge_id)
        self._in[target].append(edge_id)
        return edge

    def remove_edge(self, edge_id: EdgeId) -> Edge:
        """Remove and return an edge; raises if absent."""
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            raise GraphError(f"edge {edge_id!r} does not exist")
        self._generation += 1
        self._out[edge.source].remove(edge_id)
        self._in[edge.target].remove(edge_id)
        return edge

    def remove_node(self, node_id: NodeId) -> Node:
        """Remove a node and all incident edges."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            raise GraphError(f"node {node_id!r} does not exist")
        self._generation += 1
        for edge_id in list(self._out[node_id]) + list(self._in[node_id]):
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        del self._out[node_id]
        del self._in[node_id]
        return node

    def set_property(self, node_id: NodeId, name: str, value: Any) -> None:
        """Set one node property, bumping the generation counter.

        The write-path equivalent of reading through :meth:`sigma` —
        callers that mutate ``node.properties`` directly keep working but
        leave cached derived views (``GraphFrame``) unaware of the change.
        """
        self.node(node_id).properties[name] = value
        self._generation += 1

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"node {node_id!r} does not exist") from None

    def edge(self, edge_id: EdgeId) -> Edge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise GraphError(f"edge {edge_id!r} does not exist") from None

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def has_edge(self, edge_id: EdgeId) -> bool:
        return edge_id in self._edges

    def nodes(self, label: str | None = None) -> Iterator[Node]:
        """All nodes, optionally filtered by label."""
        for node in self._nodes.values():
            if label is None or node.label == label:
                yield node

    def edges(self, label: str | None = None) -> Iterator[Edge]:
        """All edges, optionally filtered by label."""
        for edge in self._edges.values():
            if label is None or edge.label == label:
                yield edge

    def node_ids(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def out_edges(self, node_id: NodeId, label: str | None = None) -> Iterator[Edge]:
        for edge_id in self._out.get(node_id, ()):
            edge = self._edges[edge_id]
            if label is None or edge.label == label:
                yield edge

    def in_edges(self, node_id: NodeId, label: str | None = None) -> Iterator[Edge]:
        for edge_id in self._in.get(node_id, ()):
            edge = self._edges[edge_id]
            if label is None or edge.label == label:
                yield edge

    def successors(self, node_id: NodeId, label: str | None = None) -> Iterator[NodeId]:
        for edge in self.out_edges(node_id, label):
            yield edge.target

    def predecessors(self, node_id: NodeId, label: str | None = None) -> Iterator[NodeId]:
        for edge in self.in_edges(node_id, label):
            yield edge.source

    def neighbors(self, node_id: NodeId) -> Iterator[NodeId]:
        """Out- and in-neighbors, deduplicated, self excluded."""
        seen: set[NodeId] = set()
        for other in self.successors(node_id):
            if other != node_id and other not in seen:
                seen.add(other)
                yield other
        for other in self.predecessors(node_id):
            if other != node_id and other not in seen:
                seen.add(other)
                yield other

    def out_degree(self, node_id: NodeId) -> int:
        return len(self._out.get(node_id, ()))

    def in_degree(self, node_id: NodeId) -> int:
        return len(self._in.get(node_id, ()))

    def degree(self, node_id: NodeId) -> int:
        return self.out_degree(node_id) + self.in_degree(node_id)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    # ------------------------------------------------------------------
    # Definition 2.1 accessors (rho / lambda / sigma)
    # ------------------------------------------------------------------

    def rho(self, edge_id: EdgeId) -> tuple[NodeId, NodeId]:
        """The incidence function: edge -> (source, target)."""
        edge = self.edge(edge_id)
        return (edge.source, edge.target)

    def lam(self, element_id: NodeId | EdgeId) -> str | None:
        """The labelling function over nodes and edges (nodes win on id clash)."""
        if element_id in self._nodes:
            return self._nodes[element_id].label
        if element_id in self._edges:
            return self._edges[element_id].label
        raise GraphError(f"element {element_id!r} does not exist")

    def sigma(self, element_id: NodeId | EdgeId, prop: str, default: Any = None) -> Any:
        """The property function over nodes and edges."""
        if element_id in self._nodes:
            return self._nodes[element_id].properties.get(prop, default)
        if element_id in self._edges:
            return self._edges[element_id].properties.get(prop, default)
        raise GraphError(f"element {element_id!r} does not exist")

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------

    def copy(self) -> "PropertyGraph":
        clone = type(self).__new__(type(self))
        PropertyGraph.__init__(clone)
        for node in self._nodes.values():
            clone.add_node(node.id, node.label, **node.properties)
        for edge in self._edges.values():
            clone.add_edge(
                edge.source, edge.target, edge.label, edge_id=edge.id, **edge.properties
            )
        clone._next_edge_id = self._next_edge_id
        return clone

    def subgraph(self, node_ids: Iterable[NodeId]) -> "PropertyGraph":
        """The induced subgraph over ``node_ids`` (edges with both ends kept)."""
        keep = set(node_ids)
        sub = type(self).__new__(type(self))
        PropertyGraph.__init__(sub)
        for node_id in keep:
            node = self.node(node_id)
            sub.add_node(node.id, node.label, **node.properties)
        for edge in self._edges.values():
            if edge.source in keep and edge.target in keep:
                sub.add_edge(
                    edge.source, edge.target, edge.label, edge_id=edge.id, **edge.properties
                )
        sub._next_edge_id = self._next_edge_id
        return sub

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={self.node_count}, edges={self.edge_count})"
