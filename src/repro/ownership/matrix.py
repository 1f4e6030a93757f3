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


#: Largest shareholding-edit batch handled by a low-rank solver update;
#: bigger deltas refactorise (the correction term grows as O(n * k)).
DEFAULT_MAX_UPDATE_RANK = 32
#: Conditioning guard on the k x k capacitance matrix of the Woodbury
#: identity — an ill-conditioned capacitance would amplify the update's
#: rounding error far beyond a fresh factorisation's.
DEFAULT_CAPACITANCE_COND_LIMIT = 1e8
#: Longest chain of stacked low-rank corrections before forcing a fresh
#: factorisation (each layer adds a solve + an O(n * k) correction).
DEFAULT_MAX_UPDATE_CHAIN = 8


def try_low_rank_update(
    old_frame: GraphFrame,
    new_frame: GraphFrame,
    damping: float = 1.0,
    *,
    max_rank: int = DEFAULT_MAX_UPDATE_RANK,
    cond_limit: float = DEFAULT_CAPACITANCE_COND_LIMIT,
    max_chain: int = DEFAULT_MAX_UPDATE_CHAIN,
) -> bool:
    """Update ``old_frame``'s cached ``splu(I - W^T)`` solver to ``new_frame``.

    When a mutation batch only edits a few shareholdings, the new system
    matrix differs from the factorised one by a rank-``k`` term
    (one rank-1 term per changed ``W^T`` cell).  The Sherman-Morrison-
    Woodbury identity then solves the *new* system with the *old*
    factorisation plus a ``k x k`` correction::

        (A + U V^T)^-1 b = A^-1 b - A^-1 U (I_k + V^T A^-1 U)^-1 V^T A^-1 b

    with ``A = I - W_old^T`` and ``U V^T = -(W_new^T - W_old^T)``.  On
    success the corrected solver is installed on ``new_frame`` (via
    :meth:`~repro.graph.columnar.GraphFrame.adopt_ownership_system`) and
    ``True`` is returned; on any fallback condition the frames are left
    untouched and ``False`` means "refactorise as usual":

    * the node sets differ (added/removed nodes change the dimension);
    * more than ``max_rank`` cells of ``W^T`` changed;
    * the old system was singular (its solver already fell back to
      per-call ``spsolve``) or produces non-finite intermediates;
    * the capacitance matrix is ill-conditioned (``cond > cond_limit``);
    * ``max_chain`` corrections are already stacked on the old solver.

    The corrected solves are mathematically exact but follow a different
    floating-point path than a fresh factorisation, so results can
    differ in the last ulps — callers needing bit-identity with a cold
    factorisation must refactorise instead.
    """
    from scipy.linalg import lu_factor, lu_solve

    if new_frame.has_ownership_system(damping):
        return True  # already factorised — nothing to save
    if old_frame.nodes != new_frame.nodes:
        return False
    n = len(new_frame.nodes)
    if n == 0:
        return False
    w_old, t_old, solve_old = old_frame.ownership_system(damping)
    depth = getattr(solve_old, "low_rank_depth", 0)
    if depth >= max_chain:
        return False
    w_new = new_frame.ownership_w()
    if damping != 1.0:
        w_new = (w_new * damping).tocsc()
    t_new = w_new.T.tocsc()
    delta = (t_new - t_old).tocoo()
    delta.sum_duplicates()
    mask = delta.data != 0.0
    rows, cols, data = delta.row[mask], delta.col[mask], delta.data[mask]
    k = len(data)
    if k == 0:
        new_frame.adopt_ownership_system(damping, (w_new, t_new, solve_old))
        return True
    if k > max_rank:
        return False

    # A_new = A_old - (T_new - T_old) = A_old + U V^T with
    # U[:, t] = -data_t * e_{rows_t} and V[:, t] = e_{cols_t}
    u = np.zeros((n, k))
    u[rows, np.arange(k)] = -data
    z = solve_old(u)  # A_old^-1 U, one multi-rhs solve on the old factors
    if not np.isfinite(z).all():
        return False  # singular/overflowed old system — refactorise
    capacitance = np.eye(k) + z[cols, :]
    cond = np.linalg.cond(capacitance)
    if not np.isfinite(cond) or cond > cond_limit:
        return False
    factors = lu_factor(capacitance)

    def solver(rhs: np.ndarray) -> np.ndarray:
        base = solve_old(rhs)
        return base - z @ lu_solve(factors, base[cols])

    solver.low_rank_depth = depth + 1
    solver.low_rank_k = k
    new_frame.adopt_ownership_system(damping, (w_new, t_new, solver))
    return True


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
