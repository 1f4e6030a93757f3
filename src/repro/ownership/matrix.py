"""Integrated ownership via sparse linear algebra.

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

``W`` comes straight from the graph's columnar frame
(:class:`~repro.graph.columnar.GraphFrame`): the shareholding COO
buffers are built once per graph version, and the point solves share one
``splu`` factorisation of ``I - W^T`` instead of running a fresh
``spsolve`` per source — bit-identical results (same SuperLU code path),
O(n·nnz) once instead of per solve.  The node order is the frame's
intern order: ``str(id)``-sorted like the historical implementation, but
with a deterministic type/repr tiebreak for ids that stringify
identically (``1`` vs ``"1"``), which the old ``sorted(key=str)`` left
ambiguous.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..graph.columnar import GraphFrame
from ..graph.company_graph import CompanyGraph
from ..graph.property_graph import NodeId

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


def integrated_ownership_matrix(
    graph: CompanyGraph,
    damping: float = 1.0,
) -> tuple[list[NodeId], np.ndarray]:
    """The full integrated-ownership matrix ``Y = (I - W)^-1 W``.

    ``damping`` < 1 shrinks W before inversion; useful when a graph has
    (pathological) fully circular ownership making ``I - W`` singular.
    Returns (node order, dense Y) — dense because Y is generally dense;
    intended for graphs up to a few thousand nodes.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    frame = GraphFrame.of(graph)
    nodes = list(frame.nodes)
    if not nodes:
        return nodes, np.zeros((0, 0))
    w = frame.ownership_w()
    if damping != 1.0:
        w = (w * damping).tocsc()
    system = (identity(len(nodes), format="csc") - w)
    solution = spsolve(system, w.toarray())
    result = np.asarray(solution)
    if result.ndim == 1:  # single-node graphs come back as a vector
        result = result.reshape(len(nodes), len(nodes))
    return nodes, result


def integrated_ownership(
    graph: CompanyGraph,
    source: NodeId,
    target: NodeId,
    damping: float = 1.0,
) -> float:
    """Integrated ownership of ``source`` over ``target`` (walk-sum)."""
    nodes, matrix = integrated_ownership_matrix(graph, damping)
    index = {node: i for i, node in enumerate(nodes)}
    if source not in index or target not in index:
        return 0.0
    return float(matrix[index[source], index[target]])


def integrated_ownership_from(
    graph: CompanyGraph,
    source: NodeId,
    damping: float = 1.0,
) -> dict[NodeId, float]:
    """Integrated ownership of ``source`` over every node (one triangular solve).

    Solves ``y = W^T y + W^T e_source`` — the column of Y restricted to
    the source row — against the frame's cached ``splu`` factorisation,
    so a sweep over many sources (UBO indexing, close-link screening)
    factorises ``I - W^T`` exactly once per graph version.
    """
    frame = GraphFrame.of(graph)
    index = frame.index
    if source not in index:
        return {}
    _, transpose, solver = frame.ownership_system(damping)
    unit = np.zeros(len(frame.nodes))
    unit[index[source]] = 1.0
    rhs = transpose @ unit
    solution = solver(rhs)
    return {
        node: float(solution[i])
        for node, i in index.items()
        if node != source and abs(solution[i]) > 1e-12
    }
