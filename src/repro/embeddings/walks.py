"""Second-order biased random walks — the sampling strategy of node2vec.

Grover & Leskovec's node2vec (the primitive wrapped by the paper's
``#GraphEmbedClust`` function) samples walks whose next-step distribution
depends on the previous step: with the walk at ``v`` coming from ``t``,
the unnormalised probability of moving to neighbour ``x`` is

* ``w(v,x) / p``   when ``x == t``      (return parameter),
* ``w(v,x)``       when ``x`` is also a neighbour of ``t``,
* ``w(v,x) / q``   otherwise            (in-out parameter).

Low ``q`` favours exploration (structural equivalence), low ``p`` keeps
the walk local (homophily).  Walks treat the graph as undirected — the
standard choice for ownership networks, where influence flows both ways
along a shareholding for similarity purposes.

Walks come from a *deterministic kernel*: every (start node, walk index)
pair owns an independent RNG stream seeded from a stable hash of (seed,
node, index), so the walk set is a pure function of the adjacency and the
seed — independent of start order.  A step draws one uniform from that
stream and binary-searches a per-node cumulative-weight table with
``bisect``.  The unbiased case (p == q == 1, the paper's default) steps
all walks in numpy lockstep over a CSR view of the adjacency instead of
one Python loop per step.

The adjacency and the lockstep CSR live in the columnar core now:
:class:`RandomWalker` accepts a :class:`~repro.graph.columnar.GraphFrame`
directly (sharing the frame's cached merged-undirected view and CSR
buffers with every other consumer of that graph version), and
:func:`build_adjacency` is a thin compatibility shim over the frame.
"""

from __future__ import annotations

# hashlib.blake2b is _blake2.blake2b; importing hashlib would also load OpenSSL
from _blake2 import blake2b
from bisect import bisect_left
from itertools import accumulate
from typing import Hashable, Sequence

import numpy as np

from ..graph.columnar import GraphFrame, build_walker_csr
from ..graph.property_graph import PropertyGraph

NodeId = Hashable

#: node -> (neighbor ids, weights, cumulative weights, total weight),
#: all aligned; the node2vec transition tables of one adjacency
_Table = tuple[tuple, tuple, list, float]


# Counter-based per-walk randomness: each (node, walk-index) pair owns a
# uniform stream u(t) = splitmix64(entropy(node, index) + t * GOLDEN) that
# is a pure function of the walker seed and the node identity — no shared
# RNG state, so any subset of the start nodes draws identical numbers.
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_WALK_SALT = np.uint64(0xD1B54A32D192ED03)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _SPLITMIX_M1
    x = (x ^ (x >> np.uint64(27))) * _SPLITMIX_M2
    return x ^ (x >> np.uint64(31))


def _node_entropy(seed: int, node: NodeId) -> int:
    """Stable 64-bit entropy per (seed, node) — process-independent."""
    hasher = blake2b(digest_size=8)
    for part in (str(seed), repr(node)):
        hasher.update(part.encode("utf-8", "backslashreplace"))
        hasher.update(b"\x1f")
    return int.from_bytes(hasher.digest(), "big")


def _walk_entropies(
    node_entropies: np.ndarray, walk_indices: np.ndarray
) -> np.ndarray:
    """One 64-bit stream key per (node, walk-index) pair."""
    with np.errstate(over="ignore"):
        return _splitmix64(
            node_entropies + (walk_indices.astype(np.uint64) + np.uint64(1)) * _WALK_SALT
        )


def _uniform_matrix(entropies: np.ndarray, steps: int) -> np.ndarray:
    """``(len(entropies), steps)`` uniforms in [0, 1), 53-bit mantissas."""
    counters = np.arange(1, steps + 1, dtype=np.uint64) * _GOLDEN
    with np.errstate(over="ignore"):
        mixed = _splitmix64(entropies[:, None] + counters[None, :])
    return (mixed >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def build_adjacency(
    graph: PropertyGraph, weight_property: str = "w"
) -> dict[NodeId, list[tuple[NodeId, float]]]:
    """Undirected weighted adjacency; parallel/reciprocal edges merge by sum.

    Compatibility shim over :meth:`GraphFrame.undirected_adjacency` — the
    heavy lifting (and the cache) lives on the graph's columnar frame.
    Returns a fresh outer dict so callers may rebind entries (the
    incremental embedder does) without corrupting the shared view; the
    neighbour lists themselves are shared and must not be mutated.
    """
    return dict(GraphFrame.of(graph, weight_property).undirected_adjacency())


class RandomWalker:
    """Generates node2vec walks over a prebuilt adjacency.

    Accepts either a plain adjacency dict (``node -> [(neighbor, weight),
    ...]``, str-sorted) or a :class:`GraphFrame`, in which case the
    frame's cached merged-undirected view and lockstep CSR are shared
    instead of rebuilt per walker.
    """

    def __init__(
        self,
        adjacency: "dict[NodeId, list[tuple[NodeId, float]]] | GraphFrame",
        p: float = 1.0,
        q: float = 1.0,
        seed: int = 0,
    ):
        if p <= 0 or q <= 0:
            raise ValueError("node2vec parameters p and q must be positive")
        if isinstance(adjacency, GraphFrame):
            self._frame: GraphFrame | None = adjacency
            adjacency = adjacency.undirected_adjacency()
        else:
            self._frame = None
        self.adjacency = adjacency
        self.p = p
        self.q = q
        self.seed = seed
        self._csr: tuple | None = None  # resolved lazily by _ensure_csr
        self._entropy_cache: dict[NodeId, int] = {}
        self._tables: dict[NodeId, _Table] = {}
        for node, neighbors in adjacency.items():
            ids = tuple(neighbor for neighbor, _ in neighbors)
            weights = tuple(weight for _, weight in neighbors)
            self._tables[node] = (
                ids, weights, list(accumulate(weights)), sum(weights)
            )
        self._neighbor_sets: dict[NodeId, set[NodeId]] = {
            node: set(table[0]) for node, table in self._tables.items()
        }
        # with p == q == 1 every bias factor is w / 1.0 == w exactly, so
        # the unbiased tables already hold the biased distribution
        self._unbiased = p == 1.0 and q == 1.0
        # (previous, current) -> (ids, biased cumulative, biased total);
        # grows with the distinct directed steps actually walked
        self._biased_tables: dict[tuple[NodeId, NodeId], tuple[tuple, list, float]] = {}

    def walks(
        self, nodes: Sequence[NodeId], num_walks: int, length: int
    ) -> list[list[NodeId]]:
        """``num_walks`` walks from every node, node-major (all walks of
        ``nodes[0]``, then ``nodes[1]``, ...).  Each (node, walk-index)
        pair owns an RNG stream derived only from the walker seed and the
        node identity, so a walk does not depend on the other starts.
        """
        starts = list(nodes)
        if self._unbiased and length > 1:
            node_index = self._ensure_csr()[1]
            start_idx = np.fromiter(
                (node_index.get(start, -1) for start in starts),
                dtype=np.int64, count=len(starts),
            )
            out, lengths = self._lockstep_matrix(
                start_idx, self._entropy_array(starts), num_walks, length
            )
            return self._finish_matrix(out, lengths, starts, start_idx, num_walks)
        return [
            self._seeded_walk(start, index, length)
            for start in starts
            for index in range(num_walks)
        ]

    # ------------------------------------------------------------------
    # deterministic kernel
    # ------------------------------------------------------------------

    def _ensure_csr(self) -> tuple:
        """The lockstep CSR: the frame's cached one when the walker
        was built from a :class:`GraphFrame`, otherwise built (once) from
        the local adjacency by :func:`build_walker_csr`."""
        if self._csr is None:
            if self._frame is not None:
                self._csr = self._frame.walker_csr()
            else:
                self._csr = build_walker_csr(self.adjacency)
        return self._csr

    def _entropy_array(self, starts: list[NodeId]) -> np.ndarray:
        """Per-start stream entropies, memoised across calls."""
        cache = self._entropy_cache
        seed = self.seed
        entropies = np.empty(len(starts), dtype=np.uint64)
        for position, start in enumerate(starts):
            entropy = cache.get(start)
            if entropy is None:
                entropy = _node_entropy(seed, start)
                cache[start] = entropy
            entropies[position] = entropy
        return entropies

    def _lockstep_matrix(
        self,
        start_idx: np.ndarray,
        start_ent: np.ndarray,
        num_walks: int,
        length: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step every live walk in numpy lockstep.

        ``start_idx`` holds CSR node indices (``-1`` for unknown starts);
        dead starts (unknown or isolated) are skipped here and filled in
        by :meth:`_finish_matrix`.  Returns ``(out, lengths)``: the
        ``(m, length)`` int32 index matrix (``-1`` past the walk end) and
        the per-row walk lengths, one block of ``num_walks`` consecutive
        rows per live start.
        """
        _, _, indptr, neighbors, keys, degrees, _ = self._ensure_csr()
        live_mask = (start_idx >= 0) & (degrees[np.maximum(start_idx, 0)] > 0)
        live = start_idx[live_mask]
        m = live.size * num_walks
        if m == 0:
            return (
                np.empty((0, length), dtype=np.int32),
                np.empty(0, dtype=np.int64),
            )
        current = np.repeat(live, num_walks)
        node_entropies = np.repeat(start_ent[live_mask], num_walks)
        walk_indices = np.arange(m, dtype=np.int64) % num_walks
        uniforms = _uniform_matrix(
            _walk_entropies(node_entropies, walk_indices), length - 1
        )
        out = np.full((m, length), -1, dtype=np.int32)
        out[:, 0] = current
        alive = np.ones(m, dtype=bool)
        for step in range(1, length):
            if alive.all():
                # every walk still live (the usual case on connected
                # graphs): skip the compress/scatter indirection
                positions = np.searchsorted(
                    keys, current + uniforms[:, step - 1], side="left"
                )
                positions = np.clip(positions, indptr[current], indptr[current + 1] - 1)
                chosen = neighbors[positions]
                out[:, step] = chosen
                current = chosen
                alive = degrees[chosen] > 0
                continue
            active = np.nonzero(alive)[0]
            if active.size == 0:
                break
            at = current[active]
            positions = np.searchsorted(keys, at + uniforms[active, step - 1], side="left")
            positions = np.clip(positions, indptr[at], indptr[at + 1] - 1)
            chosen = neighbors[positions]
            out[active, step] = chosen
            current[active] = chosen
            alive[active] = degrees[chosen] > 0
        lengths = (out >= 0).sum(axis=1)
        return (out, lengths)

    def _finish_matrix(
        self,
        out: np.ndarray,
        lengths: np.ndarray,
        starts: list[NodeId],
        start_idx: np.ndarray,
        num_walks: int,
    ) -> list[list[NodeId]]:
        """Expand the lockstep index matrix into node-id walks.

        One object-array gather plus one bulk ``tolist`` converts every
        live row; the ``-1`` padding harmlessly indexes the last node
        before the per-row truncation.  Dead starts yield ``[start]``
        singletons interleaved back in node-major order.
        """
        _, _, _, _, _, degrees, node_objects = self._ensure_csr()
        rows = node_objects[out].tolist()
        width = out.shape[1] if out.size else 0
        short = np.nonzero(lengths < width)[0]
        for row, keep in zip(short.tolist(), lengths[short].tolist()):
            del rows[row][keep:]
        live_mask = (start_idx >= 0) & (degrees[np.maximum(start_idx, 0)] > 0)
        if bool(live_mask.all()):
            return rows
        walks: list[list[NodeId]] = []
        row = 0
        for start, is_live in zip(starts, live_mask.tolist()):
            if is_live:
                walks.extend(rows[row:row + num_walks])
                row += num_walks
            else:
                walks.extend([start] for _ in range(num_walks))
        return walks

    def _seeded_walk(self, start: NodeId, walk_index: int, length: int) -> list[NodeId]:
        """One walk from the (node, index)-seeded stream — the biased-case
        kernel, and the per-walk reference for the lockstep path."""
        walk = [start]
        if length <= 1:
            return walk
        table = self._tables.get(start)
        if table is None or not table[0]:
            return walk
        keys = _walk_entropies(
            np.array([_node_entropy(self.seed, start)], dtype=np.uint64),
            np.array([walk_index], dtype=np.int64),
        )
        uniforms = _uniform_matrix(keys, length - 1)[0]
        current = self._sample_with(uniforms[0], table[0], table[2], table[3])
        walk.append(current)
        while len(walk) < length:
            table = self._tables.get(current)
            if table is None or not table[0]:
                break
            ids, cumulative, total = self._biased_table(walk[-2], current, table)
            current = self._sample_with(uniforms[len(walk) - 1], ids, cumulative, total)
            walk.append(current)
        return walk

    # ------------------------------------------------------------------

    @staticmethod
    def _sample_with(uniform: float, ids: tuple, cumulative: list, total: float) -> NodeId:
        threshold = uniform * total
        # leftmost index with cumulative[i] >= threshold: the first
        # crossing of a left-to-right linear scan
        index = bisect_left(cumulative, threshold)
        if index >= len(ids):
            index = len(ids) - 1
        return ids[index]

    def _biased_table(
        self, previous: NodeId, current: NodeId, table: _Table
    ) -> tuple[tuple, list, float]:
        if self._unbiased:
            return table[0], table[2], table[3]
        key = (previous, current)
        cached = self._biased_tables.get(key)
        if cached is None:
            ids, weights, _, _ = table
            previous_neighbors = self._neighbor_sets.get(previous, set())
            p, q = self.p, self.q
            biased: list[float] = []
            for node, weight in zip(ids, weights):
                if node == previous:
                    biased.append(weight / p)
                elif node in previous_neighbors:
                    biased.append(weight)
                else:
                    biased.append(weight / q)
            cached = (ids, list(accumulate(biased)), sum(biased))
            self._biased_tables[key] = cached
        return cached


def generate_walks(
    graph: PropertyGraph,
    num_walks: int = 10,
    walk_length: int = 20,
    p: float = 1.0,
    q: float = 1.0,
    seed: int = 0,
    weight_property: str = "w",
) -> list[list[NodeId]]:
    """Convenience wrapper: frame the graph and sample node2vec walks."""
    frame = GraphFrame.of(graph, weight_property)
    walker = RandomWalker(frame, p=p, q=q, seed=seed)
    return walker.walks(list(walker.adjacency), num_walks, walk_length)
