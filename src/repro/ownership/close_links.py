"""Accumulated ownership and close links (Definitions 2.5 and 2.6).

The accumulated ownership of x over y, ``Phi(x, y)``, is the sum over all
simple paths from x to y of the product of the shares along the path.
Two companies x and y are *closely linked* for threshold t when
``Phi(x,y) >= t``, or ``Phi(y,x) >= t``, or some third party z has
``Phi(z,x) >= t`` and ``Phi(z,y) >= t`` (the ECB's "common third party
owning more than 20% of both" rule — t defaults to 0.2).

``Phi`` has one evaluation route, :func:`all_accumulated_ownership` /
:func:`accumulated_ownership_from`: exact, with no depth bound.  A simple
path crosses each strongly connected component (SCC) in one contiguous
segment, so ``Phi(s, ·)`` is a dynamic programme in topological order
over the SCCs reachable from ``s``; only the entry -> member path sums
*inside* an SCC are enumerated.  That is linear on a DAG and exponential
only in the largest SCC (cross-holdings — buy-back self-loops never lie
on a simple path).  :func:`accumulated_ownership` enumerates the simple
paths of one pair verbatim and is kept as the reference the tests
compare the route against.

The same pass gives integrated ownership, the walk-sum
``(I - W)^-1 W`` of :mod:`repro.ownership.matrix`: walks, unlike simple
paths, may circle inside an SCC, so the sum inside one is a small dense
solve instead of an enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..graph.company_graph import SHAREHOLDING, CompanyGraph
from ..graph.property_graph import NodeId
from .paths import path_weight, simple_paths

#: ECB regulation threshold for closely-linked entities.
CLOSE_LINK_THRESHOLD = 0.2


def accumulated_ownership(
    graph: CompanyGraph,
    source: NodeId,
    target: NodeId,
    max_depth: int | None = None,
    max_paths: int | None = None,
) -> float:
    """Exact ``Phi(source, target)`` by simple-path enumeration."""
    total = 0.0
    for path in simple_paths(graph, source, target, max_depth=max_depth, max_paths=max_paths):
        total += path_weight(graph, path)
    return total


class _PhiRows:
    """Ownership rows of one graph, sharing work between sources: ``Phi``
    (:meth:`row`) and integrated ownership (:meth:`integrated`).

    A row reads only the subgraph reachable from its source — the SCCs
    are found by a Tarjan pass rooted at the source, and the cached
    per-SCC sums depend on the SCC alone — so a row is the same float
    for float whichever other rows are computed with it (the contract
    the incremental snapshot maintainer relies on).
    """

    def __init__(self, graph: CompanyGraph):
        self.graph = graph
        self._holdings: dict[NodeId, list[tuple[NodeId, float]]] = {}
        #: entry node -> simple-path sums to every member of its SCC
        self._inside: dict[NodeId, list[tuple[NodeId, float]]] = {}
        #: SCC member -> (its SCC in intern order, inverse of I - W_CC^T
        #: or None when singular)
        self._solves: dict[NodeId, tuple[list[NodeId], Any]] = {}

    def holdings(self, node: NodeId) -> list[tuple[NodeId, float]]:
        """Distinct shareholding targets of ``node``, parallel edges summed."""
        merged = self._holdings.get(node)
        if merged is None:
            shares: dict[NodeId, float] = {}
            for edge in self.graph.out_edges(node, SHAREHOLDING):
                shares[edge.target] = shares.get(edge.target, 0.0) + edge.get("w", 0.0)
            merged = self._holdings[node] = list(shares.items())
        return merged

    def components(self, source: NodeId) -> list[list[NodeId]]:
        """The SCCs reachable from ``source`` in topological order
        (``source``'s first), by an iterative Tarjan pass."""
        index = {source: 0}
        low = {source: 0}
        stack = [source]
        on_stack = {source}
        components: list[list[NodeId]] = []
        work = [(source, iter(self.holdings(source)))]
        while work:
            node, children = work[-1]
            for child, _share in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(self.holdings(child))))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
        components.reverse()
        return components

    def inside(self, entry: NodeId, members: set[NodeId]) -> list[tuple[NodeId, float]]:
        """Sum of share products over the simple paths from ``entry`` to
        each member of its SCC ``members`` that stay inside it
        (``entry`` itself: the empty path, 1)."""
        sums = self._inside.get(entry)
        if sums is None:
            totals = {entry: 1.0}
            path = [entry]
            on_path = {entry}
            stack = [(iter(self.holdings(entry)), 1.0)]
            while stack:
                children, product = stack[-1]
                for child, share in children:
                    if child in members and child not in on_path:
                        weight = product * share
                        totals[child] = totals.get(child, 0.0) + weight
                        path.append(child)
                        on_path.add(child)
                        stack.append((iter(self.holdings(child)), weight))
                        break
                else:
                    stack.pop()
                    on_path.discard(path.pop())
            sums = self._inside[entry] = list(totals.items())
        return sums

    def simple_sums(
        self, component: list[NodeId], mass: dict[NodeId, float]
    ) -> dict[NodeId, float]:
        """``Phi`` inside one SCC: the mass entering at each entry times
        the simple-path sums from that entry to every member."""
        if len(component) == 1:
            (node,) = component
            return {node: mass[node]}
        members = set(component)
        value: dict[NodeId, float] = {}
        for entry in component:
            if entry in mass:
                for member, share in self.inside(entry, members):
                    value[member] = value.get(member, 0.0) + mass[entry] * share
        return value

    def walk_sums(
        self, component: list[NodeId], mass: dict[NodeId, float]
    ) -> dict[NodeId, float] | None:
        """The walk-sum inside one SCC, ``x = m + W_CC^T x`` for the mass
        ``m`` entering it, or None when there is none (a fully circular
        holding: ``I - W_CC`` singular).  A larger SCC is inverted once,
        over its members in intern order, so the floats do not depend on
        which source reached it first."""
        if len(component) == 1:
            (node,) = component
            loop = next((share for child, share in self.holdings(node) if child == node), 0.0)
            return None if loop == 1.0 else {node: mass[node] / (1.0 - loop)}
        solved = self._solves.get(component[0])
        if solved is None:
            import numpy as np

            from ..graph.columnar import intern_sort_key

            members = sorted(component, key=intern_sort_key)
            position = {member: i for i, member in enumerate(members)}
            system = np.eye(len(members))
            for i, member in enumerate(members):
                for child, share in self.holdings(member):
                    if child in position:
                        system[position[child], i] -= share
            singular = np.linalg.matrix_rank(system) < len(members)
            solved = (members, None if singular else np.linalg.inv(system))
            self._solves.update(dict.fromkeys(members, solved))
        members, inverse = solved
        if inverse is None:
            return None
        return dict(zip(members, (inverse @ [mass.get(m, 0.0) for m in members]).tolist()))

    def _rows(self, source: NodeId, within: Callable) -> dict[NodeId, float]:
        """One row: the SCCs reachable from ``source`` in topological
        order, ``within`` spreading the mass entering each over its
        members.  An SCC ``within`` finds no sum for is left out, and so
        is every node it passes mass to."""
        found: dict[NodeId, float] = {}
        if not self.graph.has_node(source):
            return found
        # the share mass entering each node over an edge from an earlier SCC
        mass = {source: 1.0}
        lost: set[NodeId] = set()
        for component in self.components(source):
            value = None if lost and not lost.isdisjoint(component) else within(component, mass)
            if value is None:
                for node in component:
                    lost.update(child for child, _share in self.holdings(node))
                continue
            for node, total in value.items():
                for child, share in self.holdings(node):
                    if child not in value:  # an edge leaving the SCC
                        mass[child] = mass.get(child, 0.0) + total * share
            value.pop(source, None)
            found.update(value)
        return found

    def row(self, source: NodeId) -> dict[NodeId, float]:
        """``Phi(source, y)`` for every y reachable from ``source``."""
        return self._rows(source, self.simple_sums)

    def integrated(self, source: NodeId) -> dict[NodeId, float]:
        """Integrated ownership of ``source`` over every node it reaches
        with a walk-sum above 1e-12; nodes at or below an SCC without a
        finite walk-sum are left out."""
        return {
            node: value
            for node, value in self._rows(source, self.walk_sums).items()
            if abs(value) > 1e-12
        }


def accumulated_ownership_from(graph: CompanyGraph, source: NodeId) -> dict[NodeId, float]:
    """``Phi(source, y)`` for every y reachable from ``source`` (exact)."""
    return _PhiRows(graph).row(source)


def is_acyclic(graph: CompanyGraph) -> bool:
    """True when the shareholding graph has no directed cycle (self-loops count)."""
    state: dict[NodeId, int] = {}  # 0 = in progress, 1 = done
    for root in graph.node_ids():
        if root in state:
            continue
        stack: list = [(root, iter(list(graph.successors(root, SHAREHOLDING))))]
        state[root] = 0
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in state:
                    state[child] = 0
                    stack.append((child, iter(list(graph.successors(child, SHAREHOLDING)))))
                    advanced = True
                    break
                if state[child] == 0:
                    return False
            if not advanced:
                state[node] = 1
                stack.pop()
    return True


def all_accumulated_ownership(
    graph: CompanyGraph,
    sources: Iterable[NodeId] | None = None,
) -> dict[NodeId, dict[NodeId, float]]:
    """``Phi`` from every source (every node, by default)."""
    if sources is None:
        sources = list(graph.node_ids())
    rows = _PhiRows(graph)
    return {source: rows.row(source) for source in sources}


@dataclass(frozen=True)
class CloseLink:
    """A detected close link with its justification."""

    x: NodeId
    y: NodeId
    reason: str          # "direct", "reverse" or "common-owner"
    witness: NodeId | None = None  # the common third party z for "common-owner"
    phi: float = 0.0


def links_from_phi(
    phi: dict[NodeId, dict[NodeId, float]],
    company_ids: set[NodeId],
    threshold: float = CLOSE_LINK_THRESHOLD,
) -> list[CloseLink]:
    """Derive the close-link relation from precomputed ``Phi`` rows.

    This is the pure derivation step of Definition 2.6, split out so the
    incremental snapshot maintainer can re-derive links from *patched*
    ``Phi`` rows and obtain bit-identical results to a cold
    :func:`close_links` run over the same rows.
    """
    links: list[CloseLink] = []

    # conditions (i) and (ii): Phi(x, y) >= t in either direction
    for source, targets in phi.items():
        if source not in company_ids:
            continue
        for target, value in targets.items():
            if target in company_ids and target != source and value >= threshold:
                links.append(CloseLink(source, target, "direct", phi=value))
                links.append(CloseLink(target, source, "reverse", phi=value))

    # condition (iii): common third party z with Phi(z, x) and Phi(z, y) >= t
    for witness, targets in phi.items():
        significant = [
            (company, value)
            for company, value in targets.items()
            if company in company_ids and value >= threshold and company != witness
        ]
        for i, (x, phi_x) in enumerate(significant):
            for y, phi_y in significant[i + 1:]:
                links.append(
                    CloseLink(x, y, "common-owner", witness=witness, phi=min(phi_x, phi_y))
                )
                links.append(
                    CloseLink(y, x, "common-owner", witness=witness, phi=min(phi_x, phi_y))
                )
    return links


def close_links(
    graph: CompanyGraph,
    threshold: float = CLOSE_LINK_THRESHOLD,
) -> list[CloseLink]:
    """All close-link pairs of *companies* per Definition 2.6.

    Returns one :class:`CloseLink` per ordered pair and justification
    (a pair may be justified several ways).  Persons participate only as
    common third parties (condition iii), matching the regulation.
    """
    phi = all_accumulated_ownership(graph)
    company_ids = {node.id for node in graph.companies()}
    return links_from_phi(phi, company_ids, threshold)


def close_link_pairs(
    graph: CompanyGraph,
    threshold: float = CLOSE_LINK_THRESHOLD,
    *,
    max_depth: None = None,
) -> set[tuple[NodeId, NodeId]]:
    """The symmetric close-link relation as a set of ordered pairs.

    ``Phi`` has no depth bound.  ``max_depth`` only accepts ``None``: the
    end-to-end benchmark's oracle still passes it by keyword.
    """
    if max_depth is not None:
        raise ValueError(f"max_depth={max_depth!r}: accumulated ownership is exact, pass None")
    return {(link.x, link.y) for link in close_links(graph, threshold)}


def closely_linked(
    graph: CompanyGraph,
    x: NodeId,
    y: NodeId,
    threshold: float = CLOSE_LINK_THRESHOLD,
) -> bool:
    """Are companies ``x`` and ``y`` closely linked? (Definition 2.6)."""
    return (x, y) in close_link_pairs(graph, threshold)
