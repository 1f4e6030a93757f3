"""Tests for node2vec: walks, skip-gram, k-means, clustering."""

import numpy as np
import pytest

from repro.embeddings import (
    Node2VecConfig,
    RandomWalker,
    build_adjacency,
    cluster_inertia,
    embed_and_cluster,
    feature_token_adjacency,
    generate_walks,
    kmeans,
    train_skipgram,
)
from repro.embeddings.walks import _node_entropy, _uniform_matrix, _walk_entropies
from repro.graph import CompanyGraph, PropertyGraph


def two_cliques(bridge: bool = True) -> PropertyGraph:
    """Two 5-cliques, optionally connected by one bridge edge."""
    graph = PropertyGraph()
    for i in range(10):
        graph.add_node(i)
    for group in (range(5), range(5, 10)):
        members = list(group)
        for a in members:
            for b in members:
                if a < b:
                    graph.add_edge(a, b, w=1.0)
    if bridge:
        graph.add_edge(0, 5, w=0.1)
    return graph


class TestAdjacency:
    def test_undirected_merge(self):
        graph = PropertyGraph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_edge("a", "b", w=0.3)
        graph.add_edge("b", "a", w=0.2)
        adjacency = build_adjacency(graph)
        assert dict(adjacency["a"]) == {"b": pytest.approx(0.5)}

    def test_self_loops_dropped(self):
        graph = PropertyGraph()
        graph.add_node("a")
        graph.add_edge("a", "a", w=1.0)
        assert build_adjacency(graph)["a"] == []

    def test_feature_tokens_link_similar_nodes(self):
        graph = CompanyGraph()
        graph.add_person("p1", surname="Rossi")
        graph.add_person("p2", surname="Rossi")
        graph.add_person("p3", surname="Verdi")
        adjacency = feature_token_adjacency(graph, ("surname",))
        token = ("__feature__", "surname", "Rossi")
        assert token in adjacency
        assert {n for n, _ in adjacency[token]} == {"p1", "p2"}


class TestWalks:
    def test_walks_follow_edges(self):
        graph = two_cliques()
        adjacency = build_adjacency(graph)
        walker = RandomWalker(adjacency, seed=1)
        for walk in walker.walks(list(adjacency), 2, 8):
            for a, b in zip(walk, walk[1:]):
                assert b in {n for n, _ in adjacency[a]}

    def test_deterministic_per_seed(self):
        graph = two_cliques()
        walks_a = generate_walks(graph, num_walks=3, walk_length=6, seed=42)
        walks_b = generate_walks(graph, num_walks=3, walk_length=6, seed=42)
        assert walks_a == walks_b

    def test_different_seeds_differ(self):
        graph = two_cliques()
        assert generate_walks(graph, seed=1) != generate_walks(graph, seed=2)

    def test_isolated_node_walk_is_singleton(self):
        graph = PropertyGraph()
        graph.add_node("lonely")
        walks = generate_walks(graph, num_walks=1, walk_length=5)
        assert walks == [["lonely"]]

    def test_invalid_pq_rejected(self):
        with pytest.raises(ValueError):
            RandomWalker({}, p=0.0)
        with pytest.raises(ValueError):
            RandomWalker({}, q=-1.0)


class _LinearScanWalker:
    """A per-step linear-scan sampler over the walk kernel's streams,
    kept as an oracle.

    :class:`RandomWalker` samples from precomputed cumulative-weight
    tables with ``bisect`` (and, unbiased, with one ``searchsorted`` per
    lockstep); the guarantee is that the walks are bit-identical to
    recomputing the biased weights and scanning them left to right, with
    the same uniform per step from the (node, walk-index) stream.
    """

    def __init__(self, adjacency, p=1.0, q=1.0, seed=0):
        self.adjacency = adjacency
        self.p = p
        self.q = q
        self.seed = seed
        self._neighbor_sets = {
            node: {neighbor for neighbor, _ in neighbors}
            for node, neighbors in adjacency.items()
        }

    def walk(self, start, index, length):
        walk = [start]
        if length <= 1:
            return walk
        neighbors = self.adjacency.get(start, ())
        if not neighbors:
            return walk
        stream = _walk_entropies(
            np.array([_node_entropy(self.seed, start)], dtype=np.uint64),
            np.array([index], dtype=np.int64),
        )
        uniforms = iter(_uniform_matrix(stream, length - 1)[0].tolist())
        weights = [weight for _, weight in neighbors]
        current = self._choose(neighbors, weights, next(uniforms))
        walk.append(current)
        while len(walk) < length:
            neighbors = self.adjacency.get(current, ())
            if not neighbors:
                break
            previous = walk[-2]
            previous_neighbors = self._neighbor_sets.get(previous, set())
            weights = []
            for node, weight in neighbors:
                if node == previous:
                    weights.append(weight / self.p)
                elif node in previous_neighbors:
                    weights.append(weight)
                else:
                    weights.append(weight / self.q)
            current = self._choose(neighbors, weights, next(uniforms))
            walk.append(current)
        return walk

    def walks(self, nodes, num_walks, length):
        return [
            self.walk(start, index, length)
            for start in nodes
            for index in range(num_walks)
        ]

    def _choose(self, neighbors, weights, uniform):
        threshold = uniform * sum(weights)
        cumulative = 0.0
        for (node, _), weight in zip(neighbors, weights):
            cumulative += weight
            if cumulative >= threshold:
                return node
        return neighbors[-1][0]


class TestWalkerOracle:
    """Cumulative-table sampling is bit-identical to the linear scan."""

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.25, 4.0), (2.0, 0.5)])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_identical_walks_under_fixed_seed(self, p, q, seed):
        adjacency = build_adjacency(two_cliques())
        fast = RandomWalker(adjacency, p=p, q=q, seed=seed)
        oracle = _LinearScanWalker(adjacency, p=p, q=q, seed=seed)
        nodes = list(adjacency)
        assert fast.walks(nodes, 4, 12) == oracle.walks(nodes, 4, 12)

    def test_identical_on_weighted_mixed_id_graph(self):
        graph = PropertyGraph()
        for node in ("a", "b", 1, 2, 3):
            graph.add_node(node)
        graph.add_edge("a", "b", w=0.3)
        graph.add_edge("a", 1, w=2.5)
        graph.add_edge("b", 2, w=0.1)
        graph.add_edge(1, 2, w=1.0)
        graph.add_edge(2, 3, w=4.0)
        graph.add_edge(3, "a", w=0.7)
        adjacency = build_adjacency(graph)
        fast = RandomWalker(adjacency, p=0.5, q=2.0, seed=99)
        oracle = _LinearScanWalker(adjacency, p=0.5, q=2.0, seed=99)
        nodes = list(adjacency)
        assert fast.walks(nodes, 5, 10) == oracle.walks(nodes, 5, 10)


class TestSkipGram:
    def test_clique_members_more_similar_than_strangers(self):
        graph = two_cliques()
        walks = generate_walks(graph, num_walks=10, walk_length=20, seed=3)
        model = train_skipgram(walks, dimensions=16, epochs=3, seed=3)
        same = model.similarity(1, 2)
        cross = model.similarity(1, 7)
        assert same > cross

    def test_deterministic(self):
        graph = two_cliques()
        walks = generate_walks(graph, num_walks=4, walk_length=10, seed=0)
        m1 = train_skipgram(walks, dimensions=8, epochs=1, seed=5)
        m2 = train_skipgram(walks, dimensions=8, epochs=1, seed=5)
        assert np.allclose(m1.input_vectors, m2.input_vectors)

    def test_most_similar_excludes_self(self):
        graph = two_cliques()
        walks = generate_walks(graph, num_walks=5, walk_length=10, seed=0)
        model = train_skipgram(walks, dimensions=8, epochs=1, seed=0)
        best = model.most_similar(0, top=3)
        assert len(best) == 3
        assert all(node != 0 for node, _ in best)

    def test_empty_walks(self):
        model = train_skipgram([], dimensions=4)
        assert model.vocabulary == []

    def test_max_pairs_subsampling(self):
        graph = two_cliques()
        walks = generate_walks(graph, num_walks=4, walk_length=10, seed=0)
        model = train_skipgram(walks, dimensions=8, epochs=1, seed=0, max_pairs=100)
        assert len(model.vocabulary) == 10


class TestKMeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(0.0, 0.1, (30, 2))
        blob_b = rng.normal(5.0, 0.1, (30, 2))
        points = np.vstack([blob_a, blob_b])
        labels, centroids = kmeans(points, 2, seed=0)
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]

    def test_k_clamped_to_points(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels, centroids = kmeans(points, 10)
        assert len(centroids) <= 2

    def test_empty_input(self):
        labels, centroids = kmeans(np.empty((0, 3)), 4)
        assert len(labels) == 0

    def test_identical_points(self):
        points = np.ones((5, 2))
        labels, _ = kmeans(points, 3, seed=1)
        assert len(labels) == 5

    def test_inertia_nonincreasing_in_k(self):
        rng = np.random.default_rng(1)
        points = rng.normal(0, 1, (60, 3))
        inertias = []
        for k in (1, 2, 4, 8):
            labels, centroids = kmeans(points, k, seed=0)
            inertias.append(cluster_inertia(points, labels, centroids))
        assert all(b <= a * 1.05 for a, b in zip(inertias, inertias[1:]))


class TestEmbedAndCluster:
    def test_single_cluster_mode(self):
        graph = two_cliques()
        assignment = embed_and_cluster(graph, 1)
        assert set(assignment.values()) == {0}

    def test_cliques_separate(self):
        graph = two_cliques()
        config = Node2VecConfig(dimensions=16, walk_length=15, num_walks=10, epochs=3, seed=0)
        assignment = embed_and_cluster(graph, 2, config)
        left = {assignment[i] for i in range(5)}
        right = {assignment[i] for i in range(5, 10)}
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_every_node_gets_one_of_k_clusters(self):
        graph = two_cliques()
        config = Node2VecConfig(dimensions=8, num_walks=2, epochs=1)
        assignment = embed_and_cluster(graph, 3, config)
        assert list(assignment) == list(graph.node_ids())
        assert set(assignment.values()) <= {0, 1, 2}

    def test_graphs_too_small_to_cluster_embed_nothing(self):
        assert embed_and_cluster(PropertyGraph(), 4) == {}
        graph = PropertyGraph()
        graph.add_node("lonely")
        assert embed_and_cluster(graph, 4) == {"lonely": 0}
