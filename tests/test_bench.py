"""Tests for the experiment harness and the recall protocol."""

import pytest

from repro.bench import (
    Experiment,
    check_shape,
    dense_synthetic,
    density_scenario,
    naive_comparison_count,
    naive_family_detection,
    no_cluster_ground_truth,
    ownership_pyramid,
    precision_recall,
    realworld_like,
    recall_at_clusters,
    recall_curve,
    timed,
    timed_repeat,
)
from repro.core import PipelineConfig
from repro.datagen import CompanySpec, generate_company_graph
from repro.linkage import default_classifiers, persons_of, train_classifiers


class TestHarness:
    def test_experiment_records_and_renders(self):
        experiment = Experiment("Fig X", "n")
        experiment.record(10, seconds=0.5, recall=0.99)
        experiment.record(20, seconds=1.25)
        table = experiment.render()
        assert "Fig X" in table
        assert "seconds" in table and "recall" in table
        assert "0.9900" in table

    def test_empty_experiment_renders(self):
        assert "no measurements" in Experiment("empty", "x").render()

    def test_precision_recall(self):
        assert precision_recall({1, 2, 3, 4}, {2, 4, 6}) == (0.5, 2 / 3)
        assert precision_recall(set(), {1}) == (0.0, 0.0)
        assert precision_recall({1}, set()) == (0.0, 0.0)

    def test_series_extraction(self):
        experiment = Experiment("e", "x")
        experiment.record(1, t=2.0)
        experiment.record(2, t=4.0)
        assert experiment.series("t") == [(1, 2.0), (2, 4.0)]

    def test_timed(self):
        result, elapsed = timed(lambda: 42)
        assert result == 42 and elapsed >= 0

    def test_timed_repeat(self):
        result, mean, spread = timed_repeat(lambda: "ok", repeats=3)
        assert result == "ok" and mean >= 0 and spread >= 0

    def test_check_shape(self):
        rising = [(1, 1.0), (2, 2.0), (3, 3.0)]
        falling = [(1, 3.0), (2, 2.0), (3, 1.0)]
        assert check_shape(rising, "increasing")
        assert not check_shape(rising, "decreasing")
        assert check_shape(falling, "non-increasing")
        assert check_shape([(1, 1.0), (2, 0.99)], "increasing", tolerance=0.05)


class TestWorkloads:
    def test_realworld_like_sparse(self):
        graph, truth = realworld_like(100, seed=1)
        assert sum(1 for _ in graph.persons()) == 100
        assert truth.links

    def test_dense_has_more_edges_than_sparse(self):
        sparse, _ = realworld_like(150, seed=2)
        dense, _ = dense_synthetic(150, seed=2)
        assert dense.edge_count > sparse.edge_count

    def test_density_scenarios_ordered(self):
        counts = [
            density_scenario(d, 150, seed=3)[0].edge_count
            for d in ("sparse", "normal", "dense", "superdense")
        ]
        assert counts == sorted(counts)

    def test_ownership_pyramid(self):
        graph = ownership_pyramid(80, m=2, seed=0)
        assert graph.node_count == 80


class TestNaiveBaseline:
    def test_comparison_count_formula(self):
        assert naive_comparison_count(10, link_classes=3) == 270

    def test_naive_detection_counts_all_pairs(self):
        graph, truth = generate_company_graph(
            CompanySpec(persons=20, companies=5, seed=5, feature_noise=0.0)
        )
        classifiers = default_classifiers()
        links, comparisons = naive_family_detection(graph, classifiers)
        assert comparisons == naive_comparison_count(20, len(classifiers))

    def test_naive_finds_planted_links(self):
        graph, truth = generate_company_graph(
            CompanySpec(persons=40, companies=5, seed=6, feature_noise=0.0)
        )
        classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)
        links, _ = naive_family_detection(graph, classifiers)
        recall = len(links & truth.links) / len(truth.links)
        assert recall > 0.5


class TestRecallProtocol:
    @pytest.fixture(scope="class")
    def setup(self):
        graph, truth = generate_company_graph(
            CompanySpec(persons=80, companies=30, seed=9, feature_noise=0.0)
        )
        classifiers = train_classifiers(persons_of(graph), truth.links, seed=1)
        config = PipelineConfig(first_level_clusters=1, use_embeddings=False)
        return graph, classifiers, config

    def test_ground_truth_nonempty(self, setup):
        graph, classifiers, config = setup
        truth = no_cluster_ground_truth(graph, classifiers, config)
        assert truth

    def test_single_cluster_recall_is_one(self, setup):
        graph, classifiers, config = setup
        truth = no_cluster_ground_truth(graph, classifiers, config)
        point = recall_at_clusters(graph, classifiers, truth, clusters=1, config=config)
        assert point.recall == pytest.approx(1.0)

    def test_many_clusters_lose_recall(self, setup):
        graph, classifiers, config = setup
        truth = no_cluster_ground_truth(graph, classifiers, config)
        extreme = recall_at_clusters(graph, classifiers, truth, clusters=500, config=config)
        single = recall_at_clusters(graph, classifiers, truth, clusters=1, config=config)
        assert extreme.recall <= single.recall

    def test_recall_curve_shape(self, setup):
        graph, classifiers, config = setup
        points = recall_curve(graph, classifiers, (1, 50), config=config, repeats=1)
        assert len(points) == 2
        assert points[0].recall >= points[1].recall


class TestAsciiPlot:
    def test_plot_renders_points(self):
        experiment = Experiment("fig", "x")
        for x, y in [(1, 1.0), (10, 0.5), (100, 0.1)]:
            experiment.record(x, recall=y)
        plot = experiment.ascii_plot("recall", width=30, height=6, logx=True)
        assert plot.count("*") == 3
        assert "fig — recall (log x)" in plot

    def test_plot_requires_two_points(self):
        experiment = Experiment("fig", "x")
        experiment.record(1, t=1.0)
        assert "not enough" in experiment.ascii_plot("t")

    def test_flat_series_does_not_crash(self):
        experiment = Experiment("fig", "x")
        experiment.record(1, t=2.0)
        experiment.record(2, t=2.0)
        assert "*" in experiment.ascii_plot("t")
