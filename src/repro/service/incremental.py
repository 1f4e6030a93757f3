"""Snapshot relations as per-source rows, patched from a delta batch.

All three derived relations of a snapshot are unions of independent
*per-source rows*:

* control closure = union over sources of ``controlled_by(source)``;
* close links derive from the per-source accumulated-ownership rows
  ``Phi(source, ·)``;
* the UBO index assembles from per-person integrated-ownership rows and
  the control rows of those persons.

Each row only reads the part of the graph reachable from its source via
shareholding edges.  So a changed edge ``u -> v`` (or changed node)
can only affect rows whose source *reaches* the change — the ancestors
of the dirty nodes in the shareholding graph.  :func:`patch_rows`
re-derives exactly those rows and carries every other one over, and a
cold build is the same call from the empty state with every source
affected: one derivation per relation, so a patched build is
bit-identical to a cold one by construction.

Family links are per-*pair* rows: a link reads only its two persons.
:meth:`DeltaBatch.touched_persons` names the persons a batch can change
the links of; the builder keeps every other link and re-scores only the
pairs with a touched end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from ..graph.company_graph import PERSON, SHAREHOLDING, CompanyGraph
from ..graph.property_graph import Edge, NodeId

Row = TypeVar("Row")


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

    def touched_persons(self) -> set[NodeId]:
        """The persons whose family links the batch may change.

        A family link reads its two persons' properties (their blocking
        keys and classifier features) and nothing else of the graph, so
        only the persons added, removed or edited can gain or lose one —
        plus, conservatively, the person ends of every removed
        non-shareholding edge (FAMILY membership).  Persons whose
        first-level cluster moved are the builder's to add: the batch
        does not see the assignment.
        """
        touched = {
            node
            for node, label in self.added_nodes + self.removed_nodes
            if label == PERSON
        }
        touched.update(
            node for node, label, _name in self.property_changes if label == PERSON
        )
        if self.base is not None:
            touched.update(
                end
                for edge in self.removed_edges
                if edge.label != SHAREHOLDING
                for end in (edge.source, edge.target)
                if self.base.is_person(end)
            )
        return touched


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
# per-source rows
# ----------------------------------------------------------------------


def patch_rows(
    rows: dict[NodeId, Row],
    graph: CompanyGraph,
    affected: Iterable[NodeId],
    row_fn: Callable[[NodeId], Row],
    label: str | None = None,
) -> dict[NodeId, Row]:
    """``rows`` with the row of every ``affected`` source re-derived by
    ``row_fn`` — or dropped, when the source is gone from ``graph`` or
    is not a node of ``label`` — and every other row carried over."""
    patched = dict(rows)
    for source in affected:
        if graph.has_node(source) and (label is None or graph.node(source).label == label):
            patched[source] = row_fn(source)
        else:
            patched.pop(source, None)
    return patched
