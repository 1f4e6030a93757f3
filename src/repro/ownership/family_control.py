"""Family control and family close links (Definitions 2.8 and 2.9).

Once personal connections are known, a family — a set of persons acting
as a single centre of interest — can be analysed like one shareholder:

* *family control* (Definition 2.8, Algorithm 8): family F controls y
  when a member controls y, or when the companies F controls plus the
  members' direct shares jointly exceed 50% of y;
* *family close link* (Definition 2.9, Algorithm 9): companies x and y
  are closely linked through F when two distinct members i, j of F have
  accumulated ownership >= t over x and y respectively.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..graph.company_graph import FAMILY, CompanyGraph
from ..graph.property_graph import NodeId
from .close_links import CLOSE_LINK_THRESHOLD, accumulated_ownership_from
from .control import CONTROL_THRESHOLD, group_controlled


def family_controlled(
    graph: CompanyGraph,
    members: Iterable[NodeId],
    threshold: float = CONTROL_THRESHOLD,
) -> set[NodeId]:
    """Companies controlled by family ``members`` acting together.

    This is exactly the coalition fixpoint of
    :func:`repro.ownership.control.group_controlled`: member shares and
    controlled-company shares pool into a single vote tally.
    """
    return group_controlled(graph, members, threshold)


def family_close_links(
    graph: CompanyGraph,
    members: Sequence[NodeId],
    threshold: float = CLOSE_LINK_THRESHOLD,
) -> set[tuple[NodeId, NodeId]]:
    """Close links induced by a family (Definition 2.9 part ii).

    Companies x, y such that two *distinct* members i != j have
    ``Phi(i, x) >= t`` and ``Phi(j, y) >= t``.  Returned as a symmetric
    set of ordered pairs (x != y).
    """
    company_ids = {node.id for node in graph.companies()}
    significant: list[set[NodeId]] = []
    for member in members:
        phi = accumulated_ownership_from(graph, member)
        significant.append(
            {company for company, value in phi.items()
             if company in company_ids and value >= threshold}
        )
    links: set[tuple[NodeId, NodeId]] = set()
    for i in range(len(members)):
        for j in range(len(members)):
            if i == j:
                continue
            for x in significant[i]:
                for y in significant[j]:
                    if x != y:
                        links.add((x, y))
                        links.add((y, x))
    return links


def families_from_graph(graph: CompanyGraph) -> dict[NodeId, set[NodeId]]:
    """Extract family membership from ``family``-labelled edges.

    The paper models families as nodes with Family-typed edges from each
    member (Algorithm 8 joins ``Link(z, x, F)`` with
    ``EdgeType(z, Family)``).  We follow the same shape: an edge
    ``person -> family_node`` labelled :data:`FAMILY` declares membership.
    Returns family node id -> set of member person ids.
    """
    families: dict[NodeId, set[NodeId]] = {}
    for edge in graph.edges(FAMILY):
        families.setdefault(edge.target, set()).add(edge.source)
    return families


def all_family_control(
    graph: CompanyGraph,
    threshold: float = CONTROL_THRESHOLD,
) -> set[tuple[NodeId, NodeId]]:
    """(family, company) control pairs for every family declared in the graph."""
    pairs: set[tuple[NodeId, NodeId]] = set()
    for family, members in families_from_graph(graph).items():
        for company in family_controlled(graph, members, threshold):
            pairs.add((family, company))
    return pairs


def all_family_close_links(
    graph: CompanyGraph,
    threshold: float = CLOSE_LINK_THRESHOLD,
) -> set[tuple[NodeId, NodeId]]:
    """Family-induced close links for every family declared in the graph."""
    links: set[tuple[NodeId, NodeId]] = set()
    for members in families_from_graph(graph).values():
        links |= family_close_links(graph, sorted(members, key=str), threshold)
    return links
