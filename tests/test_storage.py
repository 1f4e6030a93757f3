"""Durable frame store: persist/attach round-trips, version rollback,
atomic-publish crash safety, checksum rejection, failed-persist and gc
clean-up, and the updater's persist hook."""

import asyncio
import errno

import numpy as np
import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph.columnar import _CACHE_ATTR, GraphFrame
from repro.service import (
    GraphUpdater,
    Persister,
    SnapshotBuilder,
    SnapshotConfig,
    SnapshotManager,
)
from repro.storage import FrameStore, InjectedCrash, StoreError
from repro.storage import store as store_module
from repro.storage.layout import ROW_DTYPES

from .test_service_snapshot import reference_augmented


def graph_model(graph):
    return (
        [(n.id, n.label, dict(n.properties)) for n in graph.nodes()],
        [(e.id, e.source, e.target, e.label, dict(e.properties)) for e in graph.edges()],
        graph._next_edge_id,
    )


def frame_fingerprint(frame):
    """A frame's identity as bytes: the intern order, the edge columns,
    the walker CSR and the ownership matrix ``W``."""

    def raw(array):
        return (array.dtype.str, array.tobytes())

    _, _, indptr, neighbors, keys, degrees, _ = frame.walker_csr()
    w = frame.ownership_w()
    return (
        repr(frame.nodes),
        [raw(a) for a in (frame.edge_src, frame.edge_dst, frame.walk_weights)],
        [raw(a) for a in (indptr, neighbors, keys, degrees)],
        [raw(a) for a in (w.data, w.indices, w.indptr)],
    )


def manifest(store, tenant="default"):
    """``{version: {column: origin}}`` of ``tenant``, from the catalog."""
    out = {}
    with store._connect() as conn:
        for version, name, origin in conn.execute(
            "SELECT version, name, origin FROM columns WHERE tenant = ?", (tenant,)
        ):
            out.setdefault(version, {})[name] = origin
    return out


def column_path(store, version, name, tenant="default"):
    """The file version ``version`` reads column ``name`` from."""
    return store.version_dir(manifest(store, tenant)[version][name], tenant) / f"{name}.npy"


def assert_files_match_manifest(store):
    """No manifest row without its file, no file without a manifest row,
    no empty version directory."""
    with store._connect() as conn:
        named = {
            store.version_dir(origin, tenant) / f"{name}.npy"
            for tenant, origin, name in conn.execute(
                "SELECT tenant, origin, name FROM columns"
            )
        }
    on_disk = {p for p in store.versions_root.glob("*/v*/*")}
    assert on_disk == named
    assert all(any(d.iterdir()) for d in store.versions_root.glob("*/v*"))


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
        assert att.control_rows == snap1.control_rows
        assert att.close_rows == snap1.close_rows
        assert att.family_rows == snap1.family_rows
        assert att.ubo == snap1.ubo
        assert graph_model(att.graph) == graph_model(snap1.graph)
        assert graph_model(reference_augmented(att)) == graph_model(reference_augmented(snap1))
        assert att.created_at == snap1.created_at
        assert att.store_version == 1

    def test_attach_builds_no_frame_and_mmaps_the_rows(self, tmp_path, built):
        _, snap1, _, _ = built
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        att = store.attach(1)

        # the rows decode over the graph's own node order: no frame
        assert _CACHE_ATTR not in att.graph.__dict__
        # one a read builds on demand is byte-identical to the builder's
        assert frame_fingerprint(GraphFrame.of(att.graph)) == frame_fingerprint(
            GraphFrame.of(snap1.graph)
        )
        assert {p.stem for p in store.versions_root.glob("*/v*/*.npy")} <= set(ROW_DTYPES)
        # the row-state columns are served straight off the mmapped files
        with store._connect() as conn:
            views = store._load_columns(conn, "default", 1, ROW_DTYPES, verify=True)
        rows, _classes = snap1.row_columns()
        assert set(views) == set(ROW_DTYPES)
        for name, view in views.items():
            assert np.array_equal(view, rows[name]), name
            assert not view.flags.writeable, name
            if len(view):  # a zero-length column is never mapped
                assert isinstance(view, np.memmap), name
        assert any(len(view) for view in views.values())

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


    def test_row_state_is_encoded_once_for_both_codecs(self, tmp_path, monkeypatch):
        from repro.service import shm
        from repro.service import snapshot as snapshot_module

        graph, _ = generate_company_graph(CompanySpec(persons=20, companies=15, seed=5))
        snap = SnapshotBuilder(SnapshotConfig(augment=False)).build(graph)
        real = snapshot_module.encode_rows
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(snapshot_module, "encode_rows", counted)
        store = FrameStore.create(tmp_path / "store")
        segment = shm.encode_snapshot(snap)  # a pool publish: seal, then persist
        try:
            store.persist(snap)
        finally:
            segment.close()
            segment.unlink()
        assert len(calls) == 1
        assert store.attach(1).ubo == snap.ubo


class TestCatalogConnection:
    """A store keeps one catalog connection from open to close."""

    def test_persists_and_reads_share_one_connection(self, tmp_path, built, monkeypatch):
        from repro.storage import catalog

        _, snap1, _, snap2 = built
        opened = []
        real = catalog.connect

        def counted(path):
            opened.append(path)
            return real(path)

        monkeypatch.setattr(catalog, "connect", counted)
        store = FrameStore.create(tmp_path / "store")
        for snap in (snap1, snap2):
            store.persist(snap)
            assert store.attach(snap.version).version == snap.version
        assert [v["version"] for v in store.versions()] == [1, 2]
        store.gc(keep=1)
        assert len(opened) == 1

    def test_close_checkpoints_the_wal(self, tmp_path, built):
        _, snap1, _, snap2 = built
        root = tmp_path / "store"
        store = FrameStore.create(root)
        store.persist(snap1)
        store.persist(snap2)
        assert (root / "catalog.db-wal").exists()  # no checkpoint per persist
        store.close()
        store.close()  # idempotent
        assert sorted(p.name for p in root.iterdir()) == ["catalog.db", "versions"]
        with pytest.raises(StoreError, match="closed"):
            store.versions()
        assert FrameStore.open(root).latest_version() == 2

    def test_a_dropped_store_closes_its_connection(self, tmp_path, built):
        _, snap1, _, _ = built
        root = tmp_path / "store"
        store = FrameStore.create(root)
        store.persist(snap1)
        del store  # no close(), no cyclic GC: the finalizer closes it
        assert sorted(p.name for p in root.iterdir()) == ["catalog.db", "versions"]

    def test_persist_on_another_thread(self, tmp_path, built):
        from concurrent.futures import ThreadPoolExecutor

        _, snap1, _, snap2 = built
        store = FrameStore.create(tmp_path / "store")
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(store.persist, [snap1])) == [1]
            assert pool.submit(store.persist, snap2).result() == 2
        assert store.attach_latest().version == 2

    def test_failed_persists_leave_no_transaction_open(self, tmp_path, built):
        _, snap1, _, snap2 = built
        root = tmp_path / "store"
        store = FrameStore.create(root)
        store.persist(snap2)
        with pytest.raises(StoreError, match="older than the newest"):
            store.persist(snap1)  # refused inside the claim transaction
        assert not store._conn.in_transaction

        root = tmp_path / "crashed"
        store = FrameStore.create(root)
        store.persist(snap1)
        store.crash_point = "before_publish"  # inside the flip transaction
        with pytest.raises(InjectedCrash):
            store.persist(snap2)
        assert not store._conn.in_transaction
        # the staging row stays for the next open to purge, and that
        # open can write: the first connection holds no lock
        assert [v["state"] for v in store.versions()] == ["published", "staging"]
        reopened = FrameStore.open(root)
        assert [v["version"] for v in reopened.versions()] == [1]


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
        assert att.control_rows == snap1.control_rows

        # the interrupted version number is free again
        assert reopened.persist(snap2) == 2
        assert reopened.attach_latest().version == 2

    def test_checksum_mismatch_rejected(self, tmp_path, built):
        _, snap1, _, snap2 = built
        store = FrameStore.create(tmp_path / "store")
        store.persist(snap1)
        store.persist(snap2)
        victim = column_path(store, 2, "control_x")
        assert victim.parent == store.version_dir(2)  # v2's own file
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
        victim = store.version_dir(2) / "ubo_person.npy"
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
        (store.version_dir(2) / "ubo_share.npy").unlink()

        with pytest.raises(StoreError, match="missing"):
            store.attach(2)
        assert store.attach_latest().version == 1


def sharing_history():
    """Four versions: v2 changes who controls what, v3 and v4 only add a
    small stake each — their control and UBO columns equal v2's."""
    graph, _ = generate_company_graph(CompanySpec(persons=30, companies=24, seed=6))
    builder = SnapshotBuilder(SnapshotConfig(augment=False))
    out = [builder.build(graph)]
    companies = sorted(node.id for node in graph.companies())
    graph = graph.copy()
    graph.add_person("P_SHARED")
    graph.add_company("C_SHARED")
    graph.add_shareholding("P_SHARED", "C_SHARED", 0.9)
    out.append(builder.build(graph))
    for owner, company in ((0, 1), (2, 3)):
        graph = graph.copy()
        graph.add_shareholding(companies[owner], "C_SHARED", 0.001 * (company + 1))
        out.append(builder.build(graph))
    return out


class TestColumnFile:
    #: the 128 bytes every column of this dtype and length has started
    #: with since format 1 — frozen here, not computed by the code under test
    HEADER = (
        b"\x93NUMPY\x01\x00v\x00{'descr': '<i8', 'fortran_order': False,"
        b" 'shape': (3,), }" + b" " * 60 + b"\n"
    )

    def test_write_column_bytes_are_the_frozen_layout(self, tmp_path):
        from repro.storage import npyio

        array = np.array([3, -1, 2**40], dtype=np.int64)
        path = tmp_path / "a.npy"
        crc = npyio.write_column(path, array)
        assert len(self.HEADER) == npyio.HEADER_SIZE
        assert path.read_bytes() == self.HEADER + array.tobytes()
        assert crc == 1836286981 == npyio.data_crc32(path)
        assert npyio.read_header(path) == (array.dtype, 3)
        assert np.array_equal(np.load(path), array)
        assert npyio.column_equals(path, array)
        # a strided view lands as its C-order bytes; empty is header only
        strided = np.arange(6, dtype=np.int32)[::2]
        assert npyio.write_column(path, strided) == 3063043653
        assert path.read_bytes()[npyio.HEADER_SIZE:] == strided.tobytes()
        assert npyio.write_column(path, np.empty(0)) == 0
        assert path.stat().st_size == npyio.HEADER_SIZE


class TestColumnSharing:
    def test_a_version_writes_only_the_columns_that_changed(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        snapshots = sharing_history()
        wrote = []
        for snapshot in snapshots:
            store.persist(snapshot)
            wrote.append(store.last_persist)
        first, second, third, fourth = wrote
        assert first["columns_written"] == len(ROW_DTYPES)
        assert first["columns_shared"] == 0
        assert first["column_bytes"] == sum(
            p.stat().st_size - 128 for p in store.version_dir(1).iterdir()
        )
        assert 0 < second["columns_written"]
        for later in (third, fourth):  # same control, same UBO index
            assert later["columns_written"] == 0 and later["column_bytes"] == 0
            assert later["columns_shared"] == len(ROW_DTYPES)
        assert not store.version_dir(3).exists()
        assert set(manifest(store)[4].values()) <= {1, 2}
        assert store.column_files() == {
            ("default", 1): (first["columns_written"], first["column_bytes"]),
            ("default", 2): (second["columns_written"], second["column_bytes"]),
        }
        assert_files_match_manifest(store)
        for snapshot in snapshots:
            att = store.attach(snapshot.version)
            assert att.control_rows == snapshot.control_rows and att.ubo == snapshot.ubo

    def test_a_corrupt_parent_file_is_not_inherited(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        snap1, snap2, snap3, snap4 = sharing_history()
        store.persist(snap1)
        store.persist(snap2)
        victim = column_path(store, 2, "control_x")
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # same length, and the manifest still carries the old CRC
        victim.write_bytes(bytes(blob))
        store.persist(snap3)
        assert manifest(store)[3]["control_x"] == 3  # compared, not trusted
        assert store.last_persist["columns_written"] == 1
        assert store.attach(3).control_rows == snap3.control_rows
        with pytest.raises(StoreError, match="checksum mismatch"):
            store.attach(2)

    def test_corrupting_a_shared_file_fails_every_version_that_names_it(
        self, tmp_path
    ):
        store = FrameStore.create(tmp_path / "store")
        snapshots = sharing_history()
        for snapshot in snapshots:
            store.persist(snapshot)
        victim = column_path(store, 4, "ubo_share")
        assert victim.parent == store.version_dir(2)  # v2's file, read by 3 and 4
        victim.write_bytes(victim.read_bytes()[:-8])

        for version in (2, 3, 4):
            with pytest.raises(StoreError):
                store.attach(version)
        att = store.attach_latest()  # falls back past all three
        assert att.version == 1 and att.ubo == snapshots[0].ubo
        states = {v["version"]: v["state"] for v in store.versions()}
        assert states == {1: "published", 2: "corrupt", 3: "corrupt", 4: "corrupt"}

    def test_gc_keeps_a_pruned_version_s_files_while_a_kept_one_names_them(
        self, tmp_path
    ):
        store = FrameStore.create(tmp_path / "store")
        snapshots = sharing_history()
        for snapshot in snapshots:
            store.persist(snapshot)
        assert [p["version"] for p in store.gc(keep=1)] == [1, 2, 3]
        assert store.version_dir(2).is_dir()  # v4 reads v2's columns
        assert_files_match_manifest(store)
        att = FrameStore.open(store.root).attach_latest()
        assert att.version == 4 and att.control_rows == snapshots[3].control_rows

    def test_gc_reclaims_corrupt_versions_below_the_oldest_kept(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        snap1, snap2, snap3, snap4 = sharing_history()
        store.persist(snap1)
        store.persist(snap2)
        own = column_path(store, 2, "control_x")
        assert own.parent == store.version_dir(2)
        own.write_bytes(b"torn")
        assert store.attach_latest().version == 1  # demotes v2
        store.persist(snap3)
        store.persist(snap4)
        assert manifest(store)[4]["control_x"] == 3  # never v2's torn file

        assert store.gc(keep=5) == [], "v1 is kept and v2 is newer than it"
        pruned = store.gc(keep=2)
        assert [p["version"] for p in pruned] == [1, 2]
        assert [(v["version"], v["state"]) for v in store.versions()] == [
            (3, "published"), (4, "published")
        ]
        assert not own.exists()
        assert_files_match_manifest(store)
        assert store.attach(4).control_rows == snap4.control_rows

    def test_a_persist_that_fails_leaves_no_claim_behind(self, tmp_path, monkeypatch):
        store = FrameStore.create(tmp_path / "store")
        snap1 = sharing_history()[0]
        real = store_module.write_column
        calls = []

        def disk_full(path, array):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(path, array)

        monkeypatch.setattr(store_module, "write_column", disk_full)
        with pytest.raises(OSError, match="No space left"):
            store.persist(snap1)
        assert store.versions() == []
        assert not store.version_dir(1).exists()
        assert store.last_persist is None

        monkeypatch.setattr(store_module, "write_column", real)
        assert store.persist(snap1) == 1  # same process, same number
        assert store.attach(1).control_rows == snap1.control_rows
        assert_files_match_manifest(store)


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
        assert att.control_rows == manager.current.control_rows

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
