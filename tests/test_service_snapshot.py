"""Tests for versioned snapshots: builds, payloads, atomic swaps."""

import json

import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph import SHAREHOLDING, CompanyGraph
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


def reference_augmented(snapshot):
    """The second graph every snapshot used to hold: a copy of the base
    graph plus one edge per derived row, in canonical row order."""
    augmented = snapshot.graph.copy()
    for x, y, link_class in snapshot.family_rows:
        augmented.add_edge(x, y, link_class)
    for x, y in snapshot.control_rows:
        augmented.add_edge(x, y, "control")
    for x, y in snapshot.close_rows:
        augmented.add_edge(x, y, "close_link")
    return augmented


def reference_neighbors(snapshot, augmented, node_id, depth, label):
    """``/neighbors`` as it was served from ``reference_augmented``:
    the node's edge lists, and a BFS over ``successors``."""
    node = augmented.node(node_id)
    payload = {
        "version": snapshot.version,
        "id": node_id,
        "label": node.label,
        "properties": dict(node.properties),
        "out": [
            {"target": e.target, "label": e.label, "properties": dict(e.properties)}
            for e in augmented.out_edges(node_id, label)
        ],
        "in": [
            {"source": e.source, "label": e.label, "properties": dict(e.properties)}
            for e in augmented.in_edges(node_id, label)
        ],
    }
    if depth > 1:
        frontier = {node_id}
        visited = {node_id}
        for _ in range(depth):
            next_frontier = set()
            for current in frontier:
                for successor in augmented.successors(current, label):
                    if successor not in visited:
                        visited.add(successor)
                        next_frontier.add(successor)
            frontier = next_frontier
        visited.discard(node_id)
        payload["reachable"] = sorted(visited, key=str)
    return payload


def assert_neighbors_match_reference(snapshot):
    """Every node x depth x label body equals the frozen reference."""
    augmented = reference_augmented(snapshot)
    family_class = snapshot.family_rows[0][2]
    labels = (None, SHAREHOLDING, "control", "close_link", family_class, "no_such_label")
    for node in snapshot.graph.nodes():
        for depth in (1, 2, 3):
            for label in labels:
                got = snapshot.neighbors_payload(node.id, depth, label)
                expected = reference_neighbors(snapshot, augmented, node.id, depth, label)
                assert json.dumps(got) == json.dumps(expected), (node.id, depth, label)


class TestBuild:
    def test_versions_increase_monotonically(self, graph):
        builder = SnapshotBuilder()
        assert builder.build(graph).version == 1
        assert builder.build(graph).version == 2
        assert builder.version == 2

    def test_precomputed_control_matches_reference(self, graph, snapshot):
        assert snapshot.control == control_closure(graph, threshold=0.5)

    def test_precomputed_close_links_match_reference(self, graph, snapshot):
        assert snapshot.close_links == close_link_pairs(graph, 0.2)

    def test_augmented_graph_has_typed_edges(self, graph, snapshot):
        augmented = reference_augmented(snapshot)
        derived = augmented.edge_count - graph.edge_count
        assert derived >= len(snapshot.control)
        assert snapshot.stats_payload()["augmented_edges"] == derived == (
            len(snapshot.family_rows) + len(snapshot.control_rows) + len(snapshot.close_rows)
        )
        control_edges = sum(
            len(snapshot.neighbors_payload(node.id, label="control")["out"])
            for node in graph.nodes()
        )
        assert control_edges == len(snapshot.control)

    def test_custom_threshold_ubo_keeps_the_default_owners(self, snapshot):
        company = next(iter(snapshot.ubo))
        custom = snapshot.ubo_payloads([company], threshold=0.0)[company]
        assert {o["person"] for o in custom["owners"]} >= {
            o.person for o in snapshot.ubo[company]
        }

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

    def test_custom_threshold_ubo_computes_the_rows_that_reach_it(
        self, graph, snapshot, monkeypatch
    ):
        from repro.ownership.close_links import _PhiRows
        from repro.ownership.ubo import assemble_beneficial_owners, beneficial_owner_rows
        from repro.service.incremental import shareholding_ancestors

        integrated, controlled = beneficial_owner_rows(graph)
        full = assemble_beneficial_owners(graph, integrated, controlled, 0.1)
        computed = []
        integrated_row = _PhiRows.integrated

        def counting(rows, source):
            computed.append(source)
            return integrated_row(rows, source)

        monkeypatch.setattr(_PhiRows, "integrated", counting)
        persons = {node.id for node in graph.persons()}
        counts = []
        for company in (node.id for node in graph.companies()):
            computed.clear()
            payload = snapshot.ubo_payloads([company], threshold=0.1)[company]
            # k persons reach the company: k rows, not one per person
            assert sorted(computed) == sorted(shareholding_ancestors(graph, [company]) & persons)
            counts.append(len(computed))
            assert payload["owners"] == [
                {"person": o.person, "integrated_share": round(o.integrated_share, 6),
                 "controls": o.controls, "basis": o.basis}
                for o in full.get(company, [])
            ]
        assert any(0 < k < len(persons) for k in counts)

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
    for rows in (snapshot.family_rows, snapshot.control_rows, snapshot.close_rows)
    for row in rows
    for node in row[:2]
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

    def test_built_shm_attached_and_store_attached_agree(self, snapshot, tmp_path):
        from repro.service import attach_snapshot, encode_snapshot
        from repro.storage import FrameStore

        assert_neighbors_match_reference(snapshot)
        segment = encode_snapshot(snapshot)
        try:
            assert_neighbors_match_reference(attach_snapshot(segment.name))
        finally:
            segment.unlink()
            segment.close()
        store = FrameStore.create(tmp_path / "store")
        store.persist(snapshot)
        assert_neighbors_match_reference(store.attach(snapshot.version))

    def test_delta_built_snapshots_match_the_reference(self, graph):
        from repro.service.updates import apply_deltas

        builder = SnapshotBuilder()
        staging = graph
        builder.build(staging)
        edge = next(iter(graph.edges(SHAREHOLDING)))
        owner = next(iter(graph.companies())).id
        for deltas in (
            [
                {"op": "add_company", "id": "C_NEW"},
                {"op": "add_shareholding", "owner": owner, "company": "C_NEW", "share": 0.7},
            ],
            [{"op": "remove_edge", "id": edge.id}],
        ):
            candidate = staging.copy()
            batch = apply_deltas(candidate, deltas)
            batch.base = staging
            batch.base_generation = staging.generation
            built = builder.build(candidate, delta=batch)
            assert built.incremental
            assert_neighbors_match_reference(built)
            staging = candidate

    def test_store_whose_config_carries_the_removed_fields_attaches_and_serves(
        self, graph, tmp_path
    ):
        from repro.embeddings import Node2VecConfig
        from repro.service import GraphRegistry
        from repro.storage import FrameStore

        # what unpickling an older build's SnapshotConfig leaves behind:
        # pickle restores the instance __dict__, declared field or not;
        # every clustered store carries the old embedding hyper-parameters,
        # the removed sequential sampler (workers=None) and the default
        # thresholds the config once declared
        config = SnapshotConfig(first_level_clusters=4, use_embeddings=True)
        node2vec = Node2VecConfig(
            dimensions=16, walk_length=10, num_walks=4, epochs=1, window=3
        )
        vars(node2vec)["workers"] = None
        removed = {
            "index_properties": ("name", "surname", "address"),
            "low_rank_updates": True,
            "max_update_rank": 32,
            "max_path_depth": 12,
            "dirty_hops": 2,
            "node2vec": node2vec,
            "embedding_features": {"surname": 1.0, "address": 3.0},
            "control_threshold": 0.5,
            "close_link_threshold": 0.2,
            "ubo_threshold": 0.25,
        }
        vars(config).update(removed)
        FrameStore.create(tmp_path / "store").persist(SnapshotBuilder(config).build(graph))
        attached = FrameStore.open(tmp_path / "store").attach(1)
        assert {name: vars(attached.config)[name] for name in removed} == removed
        assert_neighbors_match_reference(attached)
        assert "indexed_properties" not in attached.stats_payload()

        # mutations re-embed with today's one default: cold after the
        # attach, warm on the next batch
        binding = GraphRegistry(attached.config).create(
            "default", snapshot=attached, start_version=1
        )
        company = next(iter(graph.companies())).id
        for version, person in ((2, "P_NEW_1"), (3, "P_NEW_2")):
            staged, batch = binding.updater.stage([
                {"op": "add_person", "id": person},
                {"op": "add_shareholding", "owner": person, "company": company,
                 "share": 0.01},
            ])
            published = binding.updater.publish(staged, batch)
            assert published.version == version and published.warm
            assert_neighbors_match_reference(published)
        embedder = binding.builder._embedder
        assert embedder.config == Node2VecConfig()
        assert (embedder.cold_rounds, embedder.warm_rounds) == (1, 1)

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
