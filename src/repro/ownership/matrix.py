"""Integrated ownership: the walk-sum of direct ownership.

Definition 2.5's accumulated ownership sums simple paths and is exact
but worst-case exponential.  Corporate-network economics (the literature
the paper cites for ownership studies) more often uses *integrated
ownership*: the walk-sum

    Y = W + W·Y      =>      Y = (I - W)^-1 · W

where ``W`` is the direct-ownership matrix.  Integrated and accumulated
ownership coincide on acyclic graphs (every walk is a simple path); on
cyclic graphs the geometric series converges whenever no company is
fully self-owned through cycles, counting circular ownership the way a
dividend flow would — including a company's indirect stake in itself
(the buy-back effect).

A row of ``Y`` is computed by the same pass over the strongly connected
components (SCCs) reachable from its source that gives accumulated
ownership (:class:`~repro.ownership.close_links._PhiRows`): in
topological order, the share mass entering each SCC is spread over its
members by one small dense solve of ``I - W_CC^T``.  A row therefore
costs what its source reaches, and an SCC without a finite walk-sum
(``I - W_CC`` singular: a fully circular holding) removes from a row
only what lies at or below it.

:func:`integrated_ownership_matrix` solves the whole system with one
sparse ``spsolve`` — the oracle the row computation is tested against.
The node order of the matrices is the frame's intern order
(:class:`~repro.graph.columnar.GraphFrame`): ``str(id)``-sorted, with a
deterministic type/repr tiebreak for ids that stringify identically
(``1`` vs ``"1"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..graph.columnar import GraphFrame
from ..graph.company_graph import CompanyGraph
from ..graph.property_graph import NodeId
from .close_links import _PhiRows

if TYPE_CHECKING:  # pragma: no cover
    from scipy.sparse import lil_matrix


def ownership_matrix(
    graph: CompanyGraph,
) -> tuple[list[NodeId], "lil_matrix"]:
    """Direct-ownership matrix W with W[i, j] = share of node j held by node i.

    Node order is the frame's deterministic intern order; the matrix is
    materialised from the frame's cached COO buffers.
    """
    frame = GraphFrame.of(graph)
    return list(frame.nodes), frame.ownership_w().tolil()


def integrated_ownership_matrix(graph: CompanyGraph) -> tuple[list[NodeId], np.ndarray]:
    """The full integrated-ownership matrix ``Y = (I - W)^-1 W``.

    Returns (node order, dense Y) — dense because Y is generally dense;
    intended for graphs up to a few thousand nodes, and as the reference
    :func:`integrated_ownership_from` is tested against.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    frame = GraphFrame.of(graph)
    nodes = list(frame.nodes)
    if not nodes:
        return nodes, np.zeros((0, 0))
    w = frame.ownership_w()
    system = (identity(len(nodes), format="csc") - w)
    solution = spsolve(system, w.toarray())
    result = np.asarray(solution)
    if result.ndim == 1:  # single-node graphs come back as a vector
        result = result.reshape(len(nodes), len(nodes))
    return nodes, result


def integrated_ownership(graph: CompanyGraph, source: NodeId, target: NodeId) -> float:
    """Integrated ownership of ``source`` over ``target`` (walk-sum)."""
    return integrated_ownership_from(graph, source).get(target, 0.0)


def integrated_ownership_from(graph: CompanyGraph, source: NodeId) -> dict[NodeId, float]:
    """Integrated ownership of ``source`` over every node it reaches.

    Entries of magnitude at most ``1e-12`` are left out, and so is every
    node at or below an SCC without a finite walk-sum.  A sweep over many
    sources shares one :class:`~repro.ownership.close_links._PhiRows`
    instead (:func:`repro.ownership.ubo.beneficial_owner_rows`).
    """
    return _PhiRows(graph).integrated(source)
