"""Durable frame store: persist/attach round-trips, version rollback,
atomic-publish crash safety, checksum rejection, and the updater's
persist hook."""

import asyncio

import numpy as np
import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph.columnar import EXPORT_DTYPES, GraphFrame
from repro.service import (
    GraphUpdater,
    Persister,
    SnapshotBuilder,
    SnapshotConfig,
    SnapshotManager,
)
from repro.storage import FrameStore, InjectedCrash, StoreError


def graph_model(graph):
    return (
        [(n.id, n.label, dict(n.properties)) for n in graph.nodes()],
        [(e.id, e.source, e.target, e.label, dict(e.properties)) for e in graph.edges()],
        graph._next_edge_id,
    )


@pytest.fixture(scope="module")
def built():
    """Two consecutive snapshot versions over an evolving graph."""
    graph, _ = generate_company_graph(CompanySpec(persons=50, companies=35, seed=9))
    config = SnapshotConfig(augment=True, first_level_clusters=1, use_embeddings=False)
    builder = SnapshotBuilder(config)
    snap1 = builder.build(graph)
    graph2 = graph.copy()
    graph2.add_company("C_ROLL")
    graph2.add_person("P_ROLL")
    graph2.add_shareholding("P_ROLL", "C_ROLL", 0.9)
    snap2 = builder.build(graph2)
    return graph, snap1, graph2, snap2


class TestPersistAttach:
    def test_round_trip_identity(self, tmp_path, built):
        graph, snap1, _, _ = built
        store = FrameStore.create(tmp_path / "store")
        assert store.persist(snap1) == 1
        att = store.attach(1)

        assert att.version == snap1.version
        assert att.control == snap1.control
        assert att.close_links == snap1.close_links
        assert att.family_links == snap1.family_links
        assert att.ubo == snap1.ubo
        assert graph_model(att.graph) == graph_model(snap1.graph)
        assert graph_model(att.augmented) == graph_model(snap1.augmented)
        assert att.created_at == snap1.created_at
        assert att.store_version == 1

    def test_attached_frame_is_adopted_and_mmapped(self, tmp_path, built):
        _, snap1, _, _ = built
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        att = store.attach(1)

        assert GraphFrame.of(att.graph) is att.frame
        buffers = dict(att.frame.buffers())
        oracle = dict(snap1.frame.buffers())
        assert set(buffers) == set(dict(EXPORT_DTYPES))
        for name, view in buffers.items():
            assert np.array_equal(view, oracle[name]), name
        # the raw edge/adjacency columns are served straight off the
        # mmapped files (scipy-wrapped buffers get re-materialized)
        for name in ("edge_src", "edge_dst", "walk_weights", "insertion_codes",
                     "csr_indptr", "csr_targets", "csr_positions",
                     "csc_indptr", "csc_sources", "csc_positions"):
            view = buffers[name]
            assert isinstance(view, np.memmap), name
            assert not view.flags.writeable, name

    def test_version_rollback(self, tmp_path, built):
        _, snap1, _, snap2 = built
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        store.persist(snap2)

        assert store.latest_version() == 2
        assert store.attach_latest().version == 2
        old = store.attach(1)  # rollback: serve the superseded version
        assert old.version == 1
        assert not old.graph.has_node("C_ROLL")
        assert store.attach(2).graph.has_node("C_ROLL")

    def test_duplicate_version_rejected(self, tmp_path, built):
        _, snap1, _, _ = built
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        with pytest.raises(StoreError, match="already persisted"):
            store.persist(snap1)

    def test_missing_and_unpublished_versions(self, tmp_path, built):
        _, snap1, _, _ = built
        store = FrameStore.create(tmp_path / "store")
        with pytest.raises(StoreError, match="no published snapshot versions"):
            store.attach_latest()
        store.persist(snap1)
        with pytest.raises(StoreError, match="not found in store"):
            store.attach(7)

    def test_open_missing_and_corrupt_catalog(self, tmp_path):
        with pytest.raises(StoreError, match="store not found"):
            FrameStore.open(tmp_path / "nowhere")
        root = tmp_path / "bad"
        root.mkdir()
        (root / "catalog.db").write_bytes(b"this is not sqlite at all\x00" * 4)
        with pytest.raises(StoreError, match="corrupt store catalog"):
            FrameStore.open(root)


class TestCrashSafety:
    """Kill the persist at every stage; the store must self-heal to the
    last complete version on reattach."""

    @pytest.mark.parametrize(
        "stage", ["before_files", "mid_files", "after_files", "before_publish"]
    )
    def test_crash_then_self_heal(self, tmp_path, built, stage):
        _, snap1, _, snap2 = built
        root = tmp_path / "store"
        store = FrameStore.create(root)
        store.persist(snap1)
        store.crash_point = stage
        with pytest.raises(InjectedCrash):
            store.persist(snap2)

        # reopen as a fresh process would: recovery purges the staging
        # row and any orphaned version directory, then v1 still serves
        reopened = FrameStore.open(root)
        assert [v["version"] for v in reopened.versions()] == [1]
        assert not reopened.version_dir(2).exists()
        att = reopened.attach_latest()
        assert att.version == 1
        assert att.control == snap1.control

        # the interrupted version number is free again
        assert reopened.persist(snap2) == 2
        assert reopened.attach_latest().version == 2

    def test_checksum_mismatch_rejected(self, tmp_path, built):
        _, snap1, _, snap2 = built
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        store.persist(snap2)
        victim = store.version_dir(2) / "edge_src.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte; length stays right
        victim.write_bytes(bytes(blob))

        with pytest.raises(StoreError, match="checksum mismatch"):
            store.attach(2)
        # attach_latest self-heals: demotes v2, falls back to v1
        att = store.attach_latest()
        assert att.version == 1
        states = {v["version"]: v["state"] for v in store.versions()}
        assert states[2] == "corrupt"

    def test_truncated_column_rejected(self, tmp_path, built):
        _, snap1, _, snap2 = built
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        store.persist(snap2)
        victim = store.version_dir(2) / "edge_dst.npy"
        blob = victim.read_bytes()
        victim.write_bytes(blob[:-8])

        with pytest.raises(StoreError):
            store.attach(2)
        assert store.attach_latest().version == 1

    def test_deleted_column_rejected(self, tmp_path, built):
        _, snap1, _, snap2 = built
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        store.persist(snap2)
        (store.version_dir(2) / "walk_weights.npy").unlink()

        with pytest.raises(StoreError, match="missing"):
            store.attach(2)
        assert store.attach_latest().version == 1


class TestUpdaterPersists:
    def test_mutation_persists_next_version(self, tmp_path):
        graph, _ = generate_company_graph(CompanySpec(persons=40, companies=30, seed=4))
        config = SnapshotConfig(augment=True, first_level_clusters=1, use_embeddings=False)
        builder = SnapshotBuilder(config)
        manager = SnapshotManager()
        snap1 = builder.build(graph)
        manager.publish(snap1)
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)

        persister = Persister(lambda snap, tenant: store.persist(snap, tenant=tenant))
        updater = GraphUpdater(manager, builder, graph, persist=persister)

        async def mutate():
            return await updater.apply(
                [
                    {"op": "add_company", "id": "C_HOOK"},
                    {"op": "add_person", "id": "P_HOOK"},
                    {"op": "add_shareholding", "owner": "P_HOOK",
                     "company": "C_HOOK", "share": 0.75},
                ],
                wait=True,
            )

        reply = asyncio.run(mutate())
        assert reply["status"] == "published"
        assert persister.persists == 1
        assert persister.persist_failures == 0
        assert store.latest_version() == 2
        att = store.attach(2)
        assert att.graph.has_node("C_HOOK")
        assert att.control == manager.current.control

    def test_persist_failure_is_non_fatal(self, tmp_path):
        graph, _ = generate_company_graph(CompanySpec(persons=30, companies=20, seed=2))
        config = SnapshotConfig(augment=False)
        builder = SnapshotBuilder(config)
        manager = SnapshotManager()
        manager.publish(builder.build(graph))

        def explode(snapshot, tenant):
            raise RuntimeError("disk on fire")

        persister = Persister(explode)
        updater = GraphUpdater(manager, builder, graph, persist=persister)

        async def mutate():
            return await updater.apply(
                [{"op": "add_company", "id": "C_X"}], wait=True
            )

        reply = asyncio.run(mutate())
        assert reply["status"] == "published"  # serving survived the disk
        assert persister.persist_failures == 1
        assert "disk on fire" in persister.last_persist_error["error"]
        assert persister.last_persist_error["version"] == 2
        assert manager.current.graph.has_node("C_X")
