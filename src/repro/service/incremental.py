"""Delta-driven maintenance of snapshot relations.

The cold snapshot build recomputes the control closure, the close-link
pairs and the UBO index from scratch — O(graph) work per mutation batch,
~13s at the service benchmark's scale.  This module makes the rebuild
cost proportional to the *delta* instead, DRed-style: a mutation batch
dirties a small set of nodes, only the sources whose derivations could
depend on those nodes are deleted and re-derived, and everything else is
carried over from the previous build's row state.

The key observation is that all three relations are unions of
independent *per-source rows*:

* control closure = union over sources of ``controlled_by(source)``;
* close links derive from the per-source accumulated-ownership rows
  ``Phi(source, ·)``;
* the UBO index assembles from per-person ``(integrated, controlled)``
  rows.

Each row only reads the part of the graph reachable from its source via
shareholding edges.  So a changed edge ``u -> v`` (or changed node)
can only affect rows whose source *reaches* the change — the ancestors
of the dirty nodes in the shareholding graph.  Patching recomputes
exactly those rows with the same functions the cold build uses, which
makes the patched control and close-link relations bit-identical to a
cold build by construction.  (UBO rows go through the frame's LU solve;
carried-over rows can differ from a freshly factorised solve in the
last ulps, which the service's 6-decimal payload rounding absorbs.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..graph.company_graph import PERSON, SHAREHOLDING, CompanyGraph
from ..graph.property_graph import Edge, NodeId
from ..ownership.close_links import (
    accumulated_ownership_dag,
    accumulated_ownership_from,
    all_accumulated_ownership,
    is_acyclic,
)
from ..ownership.control import controlled_by
from ..ownership.ubo import beneficial_owner_rows


@dataclass
class DeltaBatch:
    """Everything one accepted mutation batch changed, for the patchers.

    Produced by :func:`~repro.service.updates.apply_deltas` and threaded
    through :meth:`~repro.service.snapshot.SnapshotBuilder.build`.
    """

    #: shareholding edges added (in application order)
    new_edges: list[Edge] = field(default_factory=list)
    #: whether any edge or node was removed
    removed_any: bool = False
    #: ``(node id, label)`` of nodes added / removed by the batch
    added_nodes: list[tuple[NodeId, str]] = field(default_factory=list)
    removed_nodes: list[tuple[NodeId, str]] = field(default_factory=list)
    #: edge objects removed (any label, incident edges of removed nodes
    #: included)
    removed_edges: list[Edge] = field(default_factory=list)
    #: ``(node id, node label, property name)`` per ``set_property`` op
    property_changes: list[tuple[NodeId, str, str]] = field(default_factory=list)
    #: the staging graph the batch was applied *on top of* — the patchers
    #: only run when this is the exact graph object of the previous
    #: build, still at the generation it was built at (the chain check)
    base: CompanyGraph | None = None
    base_generation: int = -1

    def dirty_nodes(self) -> set[NodeId]:
        """Nodes whose incident shareholding structure changed."""
        dirty: set[NodeId] = set()
        for edge in self.new_edges:
            dirty.add(edge.source)
            dirty.add(edge.target)
        for edge in self.removed_edges:
            if edge.label == SHAREHOLDING:
                dirty.add(edge.source)
                dirty.add(edge.target)
        for node, _label in self.added_nodes:
            dirty.add(node)
        for node, _label in self.removed_nodes:
            dirty.add(node)
        return dirty

    def touches_family_inputs(self) -> bool:
        """Whether the batch could change the detected family links.

        Family links depend only on the person nodes (their properties
        feed the blocking keys and the Bayesian classifiers), the FAMILY
        membership edges, and the first-level cluster assignment (which
        the builder compares separately).  Shareholding-only deltas and
        company property edits leave them untouched.
        """
        if any(label == PERSON for _node, label in self.added_nodes):
            return True
        if any(label == PERSON for _node, label in self.removed_nodes):
            return True
        if any(label == PERSON for _node, label, _name in self.property_changes):
            return True
        return any(edge.label != SHAREHOLDING for edge in self.removed_edges)


def shareholding_ancestors(
    graph: CompanyGraph, seeds: Iterable[NodeId]
) -> set[NodeId]:
    """``seeds`` plus every node that reaches a seed via shareholdings.

    Reverse BFS over SHAREHOLDING in-edges: these are exactly the
    sources whose control / accumulated-ownership / integrated-ownership
    rows can see a change at the seeds.
    """
    reached = {seed for seed in seeds if graph.has_node(seed)}
    frontier = list(reached)
    while frontier:
        node = frontier.pop()
        for edge in graph.in_edges(node, SHAREHOLDING):
            if edge.source not in reached:
                reached.add(edge.source)
                frontier.append(edge.source)
    return reached


def affected_sources(
    delta: DeltaBatch, old_graph: CompanyGraph, new_graph: CompanyGraph
) -> set[NodeId]:
    """Sources whose per-source rows a delta batch may change.

    Ancestors are taken in *both* the old and the new graph: a removed
    edge breaks reachability that only the old graph shows, an added
    edge creates reachability that only the new graph shows.  Everything
    outside this set provably derives the same row on both graphs.
    """
    dirty = delta.dirty_nodes()
    return shareholding_ancestors(old_graph, dirty) | shareholding_ancestors(
        new_graph, dirty
    )


# ----------------------------------------------------------------------
# control closure rows
# ----------------------------------------------------------------------


def control_rows(
    graph: CompanyGraph, threshold: float
) -> dict[NodeId, set[NodeId]]:
    """Per-source control rows; their union is ``control_closure``."""
    return {
        source: controlled_by(graph, source, threshold)
        for source in graph.node_ids()
    }


def patch_control_rows(
    rows: dict[NodeId, set[NodeId]],
    old_graph: CompanyGraph,
    new_graph: CompanyGraph,
    delta: DeltaBatch,
    threshold: float,
    affected: set[NodeId] | None = None,
) -> dict[NodeId, set[NodeId]]:
    """Recompute only the rows whose source reaches the delta."""
    if affected is None:
        affected = affected_sources(delta, old_graph, new_graph)
    patched = dict(rows)
    for node, _label in delta.removed_nodes:
        patched.pop(node, None)
    for source in affected:
        if new_graph.has_node(source):
            patched[source] = controlled_by(new_graph, source, threshold)
        else:
            patched.pop(source, None)
    return patched


def control_pairs_from_rows(
    rows: dict[NodeId, set[NodeId]]
) -> set[tuple[NodeId, NodeId]]:
    return {(source, target) for source, row in rows.items() for target in row}


# ----------------------------------------------------------------------
# accumulated-ownership (Phi) rows for close links
# ----------------------------------------------------------------------


def phi_rows(
    graph: CompanyGraph, max_depth: int | None
) -> tuple[dict[NodeId, dict[NodeId, float]], bool]:
    """Per-source Phi rows plus the strategy flag (DAG DP vs DFS)."""
    use_dag = max_depth is None and is_acyclic(graph)
    return all_accumulated_ownership(graph, max_depth=max_depth), use_dag


def patch_phi_rows(
    rows: dict[NodeId, dict[NodeId, float]],
    prev_use_dag: bool,
    old_graph: CompanyGraph,
    new_graph: CompanyGraph,
    delta: DeltaBatch,
    max_depth: int | None,
    affected: set[NodeId] | None = None,
) -> tuple[dict[NodeId, dict[NodeId, float]], bool]:
    """Patch Phi rows for a delta; falls back to a full recompute when
    the evaluation strategy flips (a delta opening or closing the last
    cycle switches between the DAG DP and the bounded DFS, which changes
    every row's float accumulation order)."""
    use_dag = max_depth is None and is_acyclic(new_graph)
    if use_dag != prev_use_dag:
        return phi_rows(new_graph, max_depth)
    if affected is None:
        affected = affected_sources(delta, old_graph, new_graph)
    patched = dict(rows)
    for node, _label in delta.removed_nodes:
        patched.pop(node, None)
    for source in affected:
        if not new_graph.has_node(source):
            patched.pop(source, None)
        elif use_dag:
            patched[source] = accumulated_ownership_dag(new_graph, source)
        else:
            patched[source] = accumulated_ownership_from(
                new_graph, source, max_depth=max_depth
            )
    return patched, use_dag


# ----------------------------------------------------------------------
# UBO rows
# ----------------------------------------------------------------------


def patch_ubo_rows(
    integrated: dict[NodeId, dict[NodeId, float]],
    controlled: dict[NodeId, set[NodeId]],
    old_graph: CompanyGraph,
    new_graph: CompanyGraph,
    delta: DeltaBatch,
    control_threshold: float,
    affected: set[NodeId] | None = None,
) -> tuple[dict[NodeId, dict[NodeId, float]], dict[NodeId, set[NodeId]]]:
    """Recompute the per-person UBO rows the delta could have changed."""
    if affected is None:
        affected = affected_sources(delta, old_graph, new_graph)
    patched_integrated = dict(integrated)
    patched_controlled = dict(controlled)
    for node, _label in delta.removed_nodes:
        patched_integrated.pop(node, None)
        patched_controlled.pop(node, None)
    persons = [
        person
        for person in affected
        if new_graph.has_node(person) and new_graph.node(person).label == PERSON
    ]
    fresh_integrated, fresh_controlled = beneficial_owner_rows(
        new_graph, control_threshold, persons=persons
    )
    patched_integrated.update(fresh_integrated)
    patched_controlled.update(fresh_controlled)
    for person in affected:
        if not new_graph.has_node(person):
            patched_integrated.pop(person, None)
            patched_controlled.pop(person, None)
    return patched_integrated, patched_controlled
