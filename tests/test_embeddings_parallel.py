"""Tests for the ``#GraphEmbedClust`` stack: the deterministic walk
kernel, warm-startable SGNS/k-means, the incremental re-embedder the
snapshot builder keeps between builds, and that every clustering entry
point agrees."""

import numpy as np

from repro.core import PipelineConfig, ReasoningPipeline
from repro.embeddings import (
    IncrementalEmbedder,
    Node2VecConfig,
    RandomWalker,
    build_adjacency,
    embed_and_cluster,
    kmeans,
    train_skipgram,
    update_skipgram,
)
from repro.embeddings.incremental import _stack_vectors
from repro.embeddings.skipgram import SkipGramModel
from repro.graph import CompanyGraph, PropertyGraph


def ring_graph(n: int = 12, spokes: bool = True) -> PropertyGraph:
    """A ring with a few chords plus isolated nodes — mixed degrees."""
    graph = PropertyGraph()
    for i in range(n):
        graph.add_node(i)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, w=1.0 + (i % 3))
    if spokes:
        for i in range(0, n, 4):
            graph.add_edge(i, (i + n // 2) % n, w=0.5)
    graph.add_node("isolated-a")
    graph.add_node("isolated-b")
    return graph


def small_company_graph(persons: int = 24) -> CompanyGraph:
    graph = CompanyGraph()
    surnames = ("Rossi", "Verdi", "Bianchi")
    for i in range(persons):
        graph.add_person(f"p{i}", surname=surnames[i % 3], address=f"street {i % 5}")
    for i in range(persons // 2):
        graph.add_company(f"c{i}")
        graph.add_shareholding(f"p{i}", f"c{i}", 0.6)
        graph.add_shareholding(f"p{(i + 1) % persons}", f"c{i}", 0.4)
    return graph


class TestParallelWalkKernel:
    def test_walks_independent_of_other_starts(self):
        # each (node, walk index) owns its stream: a subset of starts
        # reproduces exactly its slice of the full run
        adjacency = build_adjacency(ring_graph())
        nodes = list(adjacency)
        full = RandomWalker(adjacency, seed=5).walks(nodes, 3, 10)
        subset = nodes[4:7]
        partial = RandomWalker(adjacency, seed=5).walks(subset, 3, 10)
        offset = 4 * 3
        assert partial == full[offset:offset + len(subset) * 3]

    def test_lockstep_matches_per_walk_reference(self):
        # the unbiased lockstep path must agree with the scalar
        # (node, index)-seeded kernel it vectorises
        adjacency = build_adjacency(ring_graph())
        nodes = list(adjacency)
        walker = RandomWalker(adjacency, seed=9)
        lockstep = walker.walks(nodes, 3, 12)
        reference = [
            RandomWalker(adjacency, seed=9)._seeded_walk(node, index, 12)
            for node in nodes
            for index in range(3)
        ]
        assert lockstep == reference

    def test_isolated_and_unknown_starts_yield_singletons(self):
        adjacency = build_adjacency(ring_graph())
        walker = RandomWalker(adjacency, seed=1)
        walks = walker.walks(["isolated-a", "missing", 0], 2, 6)
        assert walks[0] == ["isolated-a"]
        assert walks[2] == ["missing"]
        assert len(walks[4]) == 6

    def test_node_major_order(self):
        adjacency = build_adjacency(ring_graph(spokes=False))
        nodes = list(adjacency)
        walks = RandomWalker(adjacency, seed=2).walks(nodes, 3, 5)
        assert len(walks) == len(nodes) * 3
        for position, node in enumerate(nodes):
            for index in range(3):
                assert walks[position * 3 + index][0] == node


class TestEmbedClusterParallel:
    def test_embedding_matrix_stays_float32(self):
        # the vectors k-means partitions: embed_and_cluster's own round
        graph = small_company_graph()
        config = Node2VecConfig(dimensions=8, walk_length=6, num_walks=2, epochs=1)
        embedder = IncrementalEmbedder(4, config)
        assert embedder.embed(graph) == embed_and_cluster(graph, 4, config)
        matrix = _stack_vectors(embedder._model, ["p0", "never-seen-node"], 8)
        assert matrix.dtype == np.float32
        assert np.any(matrix[0] != 0.0)
        assert np.all(matrix[1] == 0.0)


class TestWarmStarts:
    def test_kmeans_accepts_initial_centroids(self):
        rng = np.random.default_rng(0)
        points = np.vstack([
            rng.normal(0.0, 0.1, (20, 3)), rng.normal(5.0, 0.1, (20, 3)),
        ]).astype(np.float32)
        labels, centroids = kmeans(points, 2, seed=0)
        relabels, recentroids = kmeans(points, 2, seed=0, initial_centroids=centroids)
        assert np.array_equal(labels, relabels)
        assert np.allclose(centroids, recentroids)

    def test_kmeans_ignores_mismatched_centroids(self):
        points = np.random.default_rng(1).normal(size=(10, 3)).astype(np.float32)
        wrong = np.zeros((5, 2), dtype=np.float32)
        labels, _ = kmeans(points, 3, seed=0, initial_centroids=wrong)
        assert len(labels) == 10

    def test_skipgram_warm_start_copies_shared_rows(self):
        walks = [["a", "b", "c", "a"], ["b", "c", "a", "b"]] * 4
        first = train_skipgram(walks, dimensions=8, epochs=1, seed=0)
        second = SkipGramModel(["a", "b", "c", "d"], 8, seed=1)
        copied = second.warm_start_from(first)
        assert copied == 3
        assert np.array_equal(second.vector("a"), first.vector("a"))

    def test_update_skipgram_extends_vocabulary(self):
        walks = [["a", "b", "c", "a"], ["b", "c", "a", "b"]] * 4
        model = train_skipgram(walks, dimensions=8, epochs=1, seed=0)
        counts = {"a": 8, "b": 8, "c": 8, "d": 4}
        update_skipgram(
            model, [["c", "d", "c", "d"]] * 4, counts=counts,
            window=2, negative=2, epochs=1,
            learning_rate=0.025, seed=0,
        )
        assert "d" in model.index
        assert model.vector("d").dtype == np.float32


class TestIncrementalEmbedder:
    def test_cold_round_matches_full_recompute(self):
        graph = small_company_graph()
        config = Node2VecConfig(
            dimensions=12, walk_length=8, num_walks=3, epochs=1, window=3,
            seed=0,
        )
        embedder = IncrementalEmbedder(4, config, feature_properties=("surname",))
        cold = embedder.embed(graph)
        full = embed_and_cluster(
            graph, 4, config, feature_properties=("surname",)
        )
        assert cold == full
        assert embedder.cold_rounds == 1 and embedder.warm_rounds == 0

    def test_warm_round_covers_every_node(self):
        graph = small_company_graph()
        config = Node2VecConfig(
            dimensions=12, walk_length=8, num_walks=3, epochs=1, window=3,
            seed=0,
        )
        embedder = IncrementalEmbedder(4, config, feature_properties=("surname",))
        embedder.embed(graph)
        edge = graph.add_edge("p0", "p5", "same_family")
        warm = embedder.embed(graph, new_edges=[edge])
        assert set(warm) == set(graph.node_ids())
        assert embedder.warm_rounds == 1
        assert all(0 <= label < 4 for label in warm.values())

    def test_new_node_in_warm_round_gets_embedded(self):
        graph = small_company_graph()
        config = Node2VecConfig(
            dimensions=12, walk_length=8, num_walks=3, epochs=1, window=3,
            seed=0,
        )
        embedder = IncrementalEmbedder(4, config)
        embedder.embed(graph)
        graph.add_person("p-new", surname="Nuovo")
        edge = graph.add_edge("p-new", "p0", "same_family")
        warm = embedder.embed(graph, new_edges=[edge])
        assert "p-new" in warm

    def test_reset_forces_cold_round(self):
        graph = small_company_graph()
        embedder = IncrementalEmbedder(
            3, Node2VecConfig(dimensions=8, walk_length=6, num_walks=2, epochs=1)
        )
        embedder.embed(graph)
        embedder.reset()
        edge = graph.add_edge("p0", "p1", "same_family")
        embedder.embed(graph, new_edges=[edge])
        assert embedder.cold_rounds == 2


class TestVadaLinkIncremental:
    """Algorithm 1's first-level clustering is the embedder's cold round,
    and a round over the graph augmented with its links re-embeds warm."""

    def _graph(self):
        return small_company_graph(persons=12)

    def _config(self) -> PipelineConfig:
        return PipelineConfig(
            first_level_clusters=3,
            node2vec=Node2VecConfig(
                dimensions=12, walk_length=8, num_walks=3, epochs=1, window=3,
                seed=0,
            ),
            embedding_features=("surname",),
        )

    def _embedder(self, tracer=None) -> IncrementalEmbedder:
        config = self._config()
        return IncrementalEmbedder(
            config.first_level_clusters,
            config.node2vec,
            feature_properties=config.embedding_features,
            tracer=tracer,
        )

    def test_round_one_matches_a_cold_embedder(self):
        graph = self._graph()
        clusters = ReasoningPipeline(graph, self._config())._first_level_assignment()
        assert clusters == self._embedder().embed(graph)

    def test_later_rounds_re_embed_warm(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        embedder = self._embedder(tracer)
        graph = self._graph()
        pipeline = ReasoningPipeline(
            graph, self._config(), cluster_assignment=embedder.embed(graph)
        )
        augmented = pipeline.augment()
        old = {edge.id for edge in graph.edges()}
        new_edges = [edge for edge in augmented.edges() if edge.id not in old]
        assert new_edges
        warm = embedder.embed(augmented, new_edges=new_edges)
        assert set(warm) == set(augmented.node_ids())
        modes = [span.attributes["mode"] for span in tracer.root.find_all("embed.walks")]
        assert modes == ["cold", "warm"]


class TestOneEmbedderEverywhere:
    """Every entry point that clusters gives the same assignment, and so
    the same family links, on the same graph: the snapshot builder, the
    reasoning pipeline and ``repro family --clusters k``."""

    K = 4

    def test_entry_points_agree(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.pipeline import PipelineConfig, ReasoningPipeline
        from repro.datalog.terms import skolem
        from repro.graph.io import read_company_csv
        from repro.service import SnapshotBuilder, SnapshotConfig

        extract = tmp_path / "ex"
        assert main(["generate", str(extract), "--persons", "40", "--companies",
                     "30", "--seed", "5"]) == 0
        graph = read_company_csv(extract)
        persons = [node.id for node in graph.persons()]

        builder = SnapshotBuilder(
            SnapshotConfig(first_level_clusters=self.K, use_embeddings=True)
        )
        snapshot = builder.build(graph)
        served = builder._state.assignment
        assert len(set(served.values())) == self.K

        pipeline = ReasoningPipeline(
            graph, PipelineConfig(first_level_clusters=self.K)
        )
        blocks = {sk: cluster for cluster, _, sk in pipeline.compute_blocks()}
        assert {p: blocks[skolem("sk_p", (p,))] for p in persons} == {
            p: served[p] for p in persons
        }
        links = pipeline.family_links()
        assert links and links == set(snapshot.family_rows)

        capsys.readouterr()
        assert main(["family", str(extract), "--clusters", str(self.K)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"{x},{y},{c}" for x, y, c in sorted(links)]
