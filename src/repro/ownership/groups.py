"""Control groups and groups of connected clients.

Two aggregations supervisors build on top of the control and close-link
relations (the paper's banking-supervision use cases):

* **control groups** — each company is assigned to its *ultimate
  controller*: the controller that nobody else controls.  The result is
  the group structure used for consolidated supervision;
* **groups of connected clients** — the EU large-exposure concept: sets
  of clients so interconnected (control relationships or economic
  dependence, here proxied by close links) that they constitute a single
  risk.  Computed as connected components of the union of the two
  relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.company_graph import CompanyGraph
from ..graph.property_graph import NodeId
from .close_links import CLOSE_LINK_THRESHOLD, close_link_pairs
from .control import CONTROL_THRESHOLD, control_closure


@dataclass
class ControlGroup:
    """One ultimate controller and everything it controls."""

    controller: NodeId
    members: set[NodeId] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.members) + 1


def ultimate_controller(
    graph: CompanyGraph,
    company: NodeId,
    threshold: float = CONTROL_THRESHOLD,
    pairs: set[tuple[NodeId, NodeId]] | None = None,
) -> NodeId | None:
    """The controller of ``company`` that is itself uncontrolled.

    Follows controllers upward; returns None when nobody controls the
    company.  On (pathological) mutual-control cycles the smallest node
    id of the cycle is chosen, deterministically.
    """
    if pairs is None:
        pairs = control_closure(graph, threshold=threshold)
    controllers_of: dict[NodeId, set[NodeId]] = {}
    for controller, controlled in pairs:
        controllers_of.setdefault(controlled, set()).add(controller)

    current = company
    visited = {company}
    while True:
        uppers = controllers_of.get(current)
        if not uppers:
            return None if current == company else current
        # prefer an uncontrolled controller; break ties deterministically
        uncontrolled = sorted(
            (u for u in uppers if not controllers_of.get(u)), key=str
        )
        if uncontrolled:
            return uncontrolled[0]
        fresh = sorted((u for u in uppers if u not in visited), key=str)
        if not fresh:
            # mutual-control cycle: pick the canonical member
            return sorted(visited, key=str)[0]
        current = fresh[0]
        visited.add(current)


def control_groups(
    graph: CompanyGraph,
    threshold: float = CONTROL_THRESHOLD,
) -> list[ControlGroup]:
    """Partition controlled companies by ultimate controller.

    Companies nobody controls head their own (possibly singleton) group
    only if they control something; fully independent companies are not
    reported.
    """
    pairs = control_closure(graph, threshold=threshold)
    groups: dict[NodeId, ControlGroup] = {}
    for company_node in graph.companies():
        company = company_node.id
        top = ultimate_controller(graph, company, threshold, pairs)
        if top is None:
            continue
        group = groups.get(top)
        if group is None:
            group = groups[top] = ControlGroup(top)
        group.members.add(company)
    return sorted(groups.values(), key=lambda g: (-g.size, str(g.controller)))


def connected_clients(
    graph: CompanyGraph,
    control_threshold: float = CONTROL_THRESHOLD,
    close_link_threshold: float = CLOSE_LINK_THRESHOLD,
) -> list[set[NodeId]]:
    """Groups of connected clients: components of control ∪ close links.

    Returns the groups with at least two members, largest first.
    """
    parent: dict[NodeId, NodeId] = {}

    def find(x: NodeId) -> NodeId:
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: NodeId, b: NodeId) -> None:
        parent[find(a)] = find(b)

    for x, y in control_closure(graph, threshold=control_threshold):
        union(x, y)
    for x, y in close_link_pairs(graph, close_link_threshold):
        union(x, y)

    components: dict[NodeId, set[NodeId]] = {}
    for node in parent:
        components.setdefault(find(node), set()).add(node)
    groups = [members for members in components.values() if len(members) >= 2]
    return sorted(groups, key=lambda g: (-len(g), str(sorted(g, key=str)[0])))


def group_exposure(
    graph: CompanyGraph,
    exposures: dict[NodeId, float],
    **kwargs,
) -> list[tuple[set[NodeId], float]]:
    """Aggregate per-client exposures over groups of connected clients.

    The large-exposure rule caps a bank's exposure to a *group*, not to a
    single client; this helper sums the given per-client exposures over
    each detected group (clients outside any group keep their own figure
    implicitly).  Returns (group, total) pairs, largest total first.
    """
    totals = []
    for group in connected_clients(graph, **kwargs):
        total = sum(exposures.get(member, 0.0) for member in group)
        if total > 0:
            totals.append((group, total))
    return sorted(totals, key=lambda item: -item[1])
