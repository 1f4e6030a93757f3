"""Tests for versioned snapshots: builds, payloads, atomic swaps."""

import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph import CompanyGraph
from repro.ownership.close_links import close_link_pairs
from repro.ownership.control import control_closure
from repro.service import Snapshot, SnapshotBuilder, SnapshotConfig, SnapshotManager


@pytest.fixture(scope="module")
def graph():
    g, _truth = generate_company_graph(CompanySpec(persons=30, companies=24, seed=11))
    return g


@pytest.fixture(scope="module")
def snapshot(graph):
    return SnapshotBuilder().build(graph)


class TestBuild:
    def test_versions_increase_monotonically(self, graph):
        builder = SnapshotBuilder()
        assert builder.build(graph).version == 1
        assert builder.build(graph).version == 2
        assert builder.version == 2

    def test_precomputed_control_matches_reference(self, graph, snapshot):
        assert snapshot.control == control_closure(graph, threshold=0.5)

    def test_precomputed_close_links_match_reference(self, graph, snapshot):
        assert snapshot.close_links == close_link_pairs(graph, 0.2, max_depth=12)

    def test_augmented_graph_has_typed_edges(self, graph, snapshot):
        assert snapshot.augmented.edge_count >= graph.edge_count + len(snapshot.control)
        control_edges = sum(1 for _ in snapshot.augmented.edges("control"))
        assert control_edges == len(snapshot.control)

    def test_store_indexes_built(self, snapshot):
        for prop in snapshot.config.index_properties:
            assert (None, prop) in snapshot.store._property_indexes

    def test_no_augment_skips_family_detection(self, graph):
        snapshot = SnapshotBuilder(SnapshotConfig(augment=False)).build(graph)
        assert snapshot.family_links == set()
        assert snapshot.control  # ownership analytics still precomputed


class TestPayloads:
    def test_control_payload_default_threshold(self, snapshot):
        payload = snapshot.control_payload()
        assert payload["version"] == snapshot.version
        assert payload["count"] == len(snapshot.control)
        assert all(len(pair) == 2 for pair in payload["pairs"])

    def test_control_payload_source_filter(self, snapshot):
        source = next(iter(snapshot.control))[0]
        payload = snapshot.control_payload(source=source)
        assert payload["pairs"]
        assert all(x == source for x, _ in payload["pairs"])

    def test_control_payload_custom_threshold(self, graph, snapshot):
        payload = snapshot.control_payload(threshold=0.35)
        expected = control_closure(graph, threshold=0.35)
        assert {tuple(p) for p in payload["pairs"]} == expected

    def test_ubo_batch_matches_precomputed(self, snapshot):
        companies = [c for c in snapshot.ubo][:4]
        payloads = snapshot.ubo_payloads(companies)
        for company in companies:
            owners = payloads[company]["owners"]
            assert [o["person"] for o in owners] == [
                o.person for o in snapshot.ubo[company]
            ]

    def test_ubo_batch_custom_threshold(self, snapshot):
        companies = [c for c in snapshot.ubo][:2]
        strict = snapshot.ubo_payloads(companies, threshold=0.9)
        for company in companies:
            for owner in strict[company]["owners"]:
                assert owner["integrated_share"] >= 0.9 or owner["controls"]

    def test_neighbors_payload(self, graph, snapshot):
        company = next(graph.companies()).id
        payload = snapshot.neighbors_payload(company)
        assert payload["id"] == company
        assert payload["label"] == "C"
        degree = len(payload["out"]) + len(payload["in"])
        assert degree >= snapshot.graph.degree(company) > 0 or degree == 0

    def test_neighbors_payload_depth(self, snapshot):
        source = next(iter(snapshot.control))[0]
        payload = snapshot.neighbors_payload(source, depth=3)
        assert "reachable" in payload

    def test_stats_payload(self, graph, snapshot):
        stats = snapshot.stats_payload()
        assert stats["nodes"] == graph.node_count
        assert stats["control_pairs"] == len(snapshot.control)
        assert stats["version"] == snapshot.version


class TestWarmRebuild:
    def test_warm_build_uses_incremental_embedder(self):
        graph, _ = generate_company_graph(CompanySpec(persons=40, companies=30, seed=5))
        config = SnapshotConfig(first_level_clusters=3, use_embeddings=True)
        builder = SnapshotBuilder(config)
        first = builder.build(graph)
        assert not first.warm
        assert builder._embedder.cold_rounds == 1

        mutated = graph.copy()
        mutated.add_company("WARMCO", name="WarmCo")
        owner = next(graph.companies()).id
        edge = mutated.add_shareholding(owner, "WARMCO", 0.7)
        second = builder.build(mutated, new_edges=[edge])
        assert second.warm
        assert second.version == 2
        assert builder._embedder.warm_rounds == 1

    def test_removals_force_cold_build(self):
        graph, _ = generate_company_graph(CompanySpec(persons=30, companies=24, seed=5))
        config = SnapshotConfig(first_level_clusters=3, use_embeddings=True)
        builder = SnapshotBuilder(config)
        builder.build(graph)
        second = builder.build(graph.copy(), new_edges=None)
        assert not second.warm
        assert builder._embedder.cold_rounds == 2


class TestManager:
    def test_empty_manager_raises(self):
        manager = SnapshotManager()
        assert manager.version == 0
        with pytest.raises(RuntimeError):
            manager.current

    def test_publish_swaps_atomically(self, graph):
        builder = SnapshotBuilder()
        manager = SnapshotManager()
        first = builder.build(graph)
        manager.publish(first)
        assert manager.current is first
        second = builder.build(graph)
        manager.publish(second)
        assert manager.current is second
        assert manager.swaps == 2
        assert manager.last_swap_pause_s < 0.01

    def test_publish_rejects_stale_version(self, graph):
        builder = SnapshotBuilder()
        manager = SnapshotManager()
        first = builder.build(graph)
        second = builder.build(graph)
        manager.publish(second)
        with pytest.raises(ValueError):
            manager.publish(first)

    def test_readers_keep_old_reference_during_swap(self, graph):
        builder = SnapshotBuilder()
        manager = SnapshotManager(builder.build(graph))
        held: Snapshot = manager.current
        manager.publish(builder.build(graph))
        # the old snapshot object stays fully usable for in-flight readers
        assert held.version == 1
        assert held.control_payload()["version"] == 1
        assert manager.current.version == 2


def test_minimal_graph_snapshot():
    graph = CompanyGraph()
    graph.add_person("p")
    graph.add_company("c")
    graph.add_shareholding("p", "c", 0.8)
    snapshot = SnapshotBuilder().build(graph)
    assert snapshot.control == {("p", "c")}
    assert snapshot.ubo["c"][0].person == "p"


# ----------------------------------------------------------------------
# /neighbors lists derived edges in one defined order
# ----------------------------------------------------------------------

_NEIGHBORS_SCRIPT = """
import json
from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.service import SnapshotBuilder

graph, _ = generate_company_graph(CompanySpec(persons=30, companies=24, seed=11))
snapshot = SnapshotBuilder().build(graph)
derived = {
    node
    for edge in snapshot.augmented.edges()
    if not graph.has_edge(edge.id)
    for node in (edge.source, edge.target)
}
assert len(derived) > 20
print(json.dumps([snapshot.neighbors_payload(node) for node in sorted(derived)]))
"""


class TestNeighborsOrder:
    def test_two_processes_with_different_hash_seeds_agree_byte_for_byte(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            )
            done = subprocess.run(
                [sys.executable, "-c", _NEIGHBORS_SCRIPT],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_built_shm_attached_and_store_attached_agree(self, graph, snapshot, tmp_path):
        import json

        from repro.service import attach_snapshot, encode_snapshot
        from repro.storage import FrameStore

        from .test_service_shm import _PARKED_HANDLES, detach

        def every_neighbors(snap):
            return json.dumps([snap.neighbors_payload(n.id) for n in graph.nodes()])

        expected = every_neighbors(snapshot)
        segment = encode_snapshot(snapshot)
        attached = attach_snapshot(segment.name)
        try:
            assert every_neighbors(attached) == expected
        finally:
            detach(attached)
            segment.unlink()
            try:
                segment.close()
            except BufferError:
                _PARKED_HANDLES.append(segment)
        store = FrameStore.create(tmp_path / "store")
        store.persist(snapshot)
        assert every_neighbors(store.attach(snapshot.version)) == expected

    def test_ids_with_equal_strings_are_ordered_by_intern_code(self):
        from repro.graph import GraphFrame, PropertyGraph
        from repro.service.snapshot import canonical_rows

        graph = PropertyGraph()
        for node in (1, "1", "a"):
            graph.add_node(node)
        frame = GraphFrame.of(graph)
        first, second = sorted((1, "1"), key=lambda n: frame.index[n])
        expected = [(first, "a"), (second, "a")]
        for pairs in ([(1, "a"), ("1", "a")], [("1", "a"), (1, "a")]):
            _family, control, close = canonical_rows(frame, (), pairs, reversed(pairs))
            assert control == close == expected
