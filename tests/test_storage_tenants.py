"""Tenant dimension of the durable frame store.

Per-tenant version streams (two tenants both holding a version 1 without
colliding in the catalog or on disk), tenant-scoped attach, and ``gc``
history pruning that never touches staging rows or a tenant's latest
published version.  (Catalog migration: ``test_storage_migration.py``.)
"""

import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.service import SnapshotBuilder, SnapshotConfig, TenantError
from repro.storage import FrameStore, StoreError

from .test_storage import assert_files_match_manifest, manifest


def graph_model(graph):
    return (
        [(n.id, n.label, dict(n.properties)) for n in graph.nodes()],
        [(e.id, e.source, e.target, e.label, dict(e.properties))
         for e in graph.edges()],
    )


def build_snapshots(seed, versions=1):
    """``versions`` consecutive snapshots over an evolving graph: each
    later one adds a company under a controlling stake, which changes
    the control, close-link and UBO rows and leaves the family links."""
    graph, _ = generate_company_graph(
        CompanySpec(persons=30, companies=24, seed=seed)
    )
    config = SnapshotConfig(augment=True, first_level_clusters=1,
                            use_embeddings=False)
    builder = SnapshotBuilder(config)
    out = [builder.build(graph)]
    for i in range(versions - 1):
        graph = graph.copy()
        graph.add_company(f"C_EXTRA{i}")
        graph.add_shareholding(next(graph.companies()).id, f"C_EXTRA{i}", 0.6)
        out.append(builder.build(graph))
    return out


class TestTenantStreams:
    def test_two_tenants_share_version_numbers_without_colliding(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        (snap_a,) = build_snapshots(seed=3)
        (snap_b,) = build_snapshots(seed=7)
        assert store.persist(snap_a, tenant="alpha") == 1
        assert store.persist(snap_b, tenant="beta") == 1  # same number, own stream

        assert store.tenants() == ["alpha", "beta"]
        assert store.published_versions(tenant="alpha") == [1]
        assert store.published_versions(tenant="beta") == [1]
        assert store.version_dir(1, "alpha") != store.version_dir(1, "beta")
        assert store.version_dir(1, "alpha").is_dir()
        assert store.version_dir(1, "beta").is_dir()

        att_a = store.attach_latest(tenant="alpha")
        att_b = store.attach_latest(tenant="beta")
        assert att_a.store_tenant == "alpha"
        assert att_b.store_tenant == "beta"
        assert graph_model(att_a.graph) == graph_model(snap_a.graph)
        assert graph_model(att_b.graph) == graph_model(snap_b.graph)
        assert graph_model(att_a.graph) != graph_model(att_b.graph)

    def test_duplicate_version_within_a_tenant_still_fails(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        (snap,) = build_snapshots(seed=1)
        store.persist(snap, tenant="alpha")
        with pytest.raises(StoreError, match="already persisted"):
            store.persist(snap, tenant="alpha")

    def test_bad_tenant_name_rejected_before_any_io(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        (snap,) = build_snapshots(seed=1)
        with pytest.raises(TenantError):
            store.persist(snap, tenant="../escape")
        assert store.tenants() == []

    def test_reopen_recovers_per_tenant(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        (snap_a,) = build_snapshots(seed=3)
        (snap_b,) = build_snapshots(seed=7)
        store.persist(snap_a, tenant="alpha")
        store.persist(snap_b, tenant="beta")
        # fake a crash mid-persist of beta's v2: staging row + orphan dir
        with store._connect() as conn:
            conn.execute(
                "INSERT INTO versions (tenant, version, state, created_at)"
                " VALUES ('beta', 2, 'staging', 0)"
            )
            conn.commit()
        store.version_dir(2, "beta").mkdir(parents=True)
        reopened = FrameStore.open(tmp_path / "store")
        assert not reopened.version_dir(2, "beta").exists()
        assert reopened.versions(tenant="beta")[0]["state"] == "published"
        # alpha is untouched by beta's recovery
        assert reopened.attach_latest(tenant="alpha").version == snap_a.version


class TestGc:
    def test_gc_keeps_newest_per_stream_and_refuses_keep_zero(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        # alpha's numbering has a gap, like a tenant whose version 2 a
        # migration dropped: gc counts versions, not version numbers
        for version, snap in zip((1, 3, 4), build_snapshots(seed=3, versions=3)):
            snap.version = version
            store.persist(snap, tenant="alpha")
        for snap in build_snapshots(seed=7, versions=2):
            store.persist(snap, tenant="beta")

        with pytest.raises(StoreError, match="keep"):
            store.gc(0)

        pruned = store.gc(keep=2)
        assert pruned == [{"tenant": "alpha", "version": 1}]
        assert store.published_versions(tenant="alpha") == [3, 4]
        assert store.published_versions(tenant="beta") == [1, 2]
        # the catalog rows are gone; of the files, exactly those no kept
        # version still reads: the family columns, which no later
        # version changed, and none of the columns the stakes changed
        assert store.versions(tenant="alpha")[0]["version"] == 3
        assert_files_match_manifest(store)
        v1_files = {p.stem for p in store.version_dir(1, "alpha").iterdir()}
        assert v1_files == {
            name for name, origin in manifest(store, "alpha")[3].items() if origin == 1
        } | {
            name for name, origin in manifest(store, "alpha")[4].items() if origin == 1
        }
        assert v1_files < set(manifest(store, "alpha")[3])
        assert "control_x" not in v1_files

        # keep=1 leaves exactly the latest of every tenant
        store.gc(keep=1)
        assert store.published_versions(tenant="alpha") == [4]
        assert store.published_versions(tenant="beta") == [2]
        store.gc(keep=1)  # idempotent: nothing below the floor
        assert_files_match_manifest(store)
        assert store.attach_latest(tenant="alpha").version == 4
        assert store.attach_latest(tenant="beta").version == 2

    def test_gc_never_touches_staging_and_scopes_by_tenant(self, tmp_path):
        store = FrameStore.create(tmp_path / "store")
        for snap in build_snapshots(seed=3, versions=2):
            store.persist(snap, tenant="alpha")
        for snap in build_snapshots(seed=7, versions=2):
            store.persist(snap, tenant="beta")
        with store._connect() as conn:
            conn.execute(
                "INSERT INTO versions (tenant, version, state, created_at)"
                " VALUES ('alpha', 9, 'staging', 0)"
            )
            conn.commit()

        pruned = store.gc(keep=1, tenant="alpha")
        assert [(p["tenant"], p["version"]) for p in pruned] == [("alpha", 1)]
        # beta untouched (tenant scope), staging row untouched (state)
        assert store.published_versions(tenant="beta") == [1, 2]
        rows = {
            (r["version"], r["state"]) for r in store.versions(tenant="alpha")
        }
        assert rows == {(2, "published"), (9, "staging")}
