"""In-place catalog migration: formats 1 to 5 -> 6.

Formats 1 and 2 store one full copy of the property model per version
(``pos``-keyed rows, plus the derived edges as ``layer = 1`` rows);
format 3 stores interval rows; all three write every frame buffer and
every row-state column of every version as a file of its own, where
format 4 keeps row-state columns only and shares the unchanged ones.
Formats 1 to 4 also hold streamed ``kind = 'graph'`` versions, which
format 5 drops.  Formats 1 to 5 code a node in the row-state columns by
its intern rank (``intern_sort_key`` order), format 6 by its position
in the version's ``seq`` order.  The legacy DDL and the legacy writers
live *here*, not in ``src/``: a store written by the current code is
rewritten into the exact catalog and directories a previous release
produced, then opened — the migration must leave every snapshot version
attaching to the same graph, row state, frame and payload bytes, and no
trace of a graph version.
"""

import gc
import json
import random
import sqlite3
import zlib

import numpy as np
import pytest

from repro.datagen.company_generator import CompanySpec, generate_company_graph
from repro.graph import CompanyGraph
from repro.graph.columnar import GraphFrame
from repro.service import SnapshotBuilder, SnapshotConfig
from repro.service import snapshot as snapshot_module
from repro.storage import FrameStore, StoreError
from repro.storage import catalog as cat
from repro.storage import model
from repro.storage import store as store_module
from repro.storage.layout import CODE_COLUMNS, ROW_COLUMNS, encode_rows
from repro.storage.npyio import write_column

from .test_service_snapshot import reference_augmented
from .test_storage import (
    assert_files_match_manifest,
    column_path,
    frame_fingerprint,
    manifest,
)

def intern_ranks(graph):
    """Per node in ``graph.node_ids()`` order, its format-5 code: its rank
    under ``intern_sort_key``, the order a frame interns by."""
    index = GraphFrame.of(graph).index
    return np.fromiter((index[n] for n in graph.node_ids()), dtype=np.int64)


#: The columns formats 1 to 6 wrote as int64 and the width rule narrows.
INT64_COLUMNS = (*CODE_COLUMNS, "family_class")


def legacy_rows(snapshot):
    """The row-state columns of ``snapshot`` as formats 1 to 5 encoded
    them: the same rows in the same order, a node coded by intern rank,
    every code and class as int64."""
    buffers, _classes = encode_rows(snapshot)
    ranks = intern_ranks(snapshot.graph)
    return {
        name: ranks[array] if name in CODE_COLUMNS
        else array.astype(np.int64) if name in INT64_COLUMNS
        else array
        for name, array in buffers.items()
    }


def downgrade_to_format5(root):
    """Recode the row-state columns of the store at ``root`` as format 5
    wrote them, replaying that release's persist version by version: a
    node coded by intern rank, codes and classes as int64 (the manifest
    row's ``dtype`` and ``nbytes`` with them), and a column equal to the
    parent version's named by the parent's file instead of written again."""
    store = FrameStore.open(root)
    recoded = {
        (row["tenant"], row["version"]): legacy_rows(
            store.attach(row["version"], tenant=row["tenant"])
        )
        for row in store.versions()
    }
    store.close()
    conn = sqlite3.connect(str(root / "catalog.db"), isolation_level=None)
    conn.execute("BEGIN")
    for path in store.versions_root.glob("*/v*/*.npy"):
        if path.stem in INT64_COLUMNS:
            path.unlink()
    parent = {}
    for (tenant, version), buffers in sorted(recoded.items()):
        if parent.get("tenant") != tenant:
            parent = {"tenant": tenant}
        for name in INT64_COLUMNS:
            array = buffers[name]
            shared = parent.get(name)
            if shared is not None and np.array_equal(shared[0], array):
                origin = shared[1]
            else:
                origin = version
                vdir = store.version_dir(version, tenant)
                vdir.mkdir(parents=True, exist_ok=True)
                write_column(vdir / f"{name}.npy", array)
            conn.execute(
                "UPDATE columns SET origin = ?, dtype = ?, nbytes = ?, crc32 = ?"
                " WHERE tenant = ? AND version = ? AND name = ?",
                (origin, array.dtype.str, array.nbytes, zlib.crc32(array.tobytes()),
                 tenant, version, name),
            )
            parent[name] = array, origin
    for vdir in store.versions_root.glob("*/v*"):
        if not any(vdir.iterdir()):
            vdir.rmdir()
    conn.execute("UPDATE store_meta SET value = '5' WHERE key = 'format'")
    conn.execute("COMMIT")
    conn.close()


#: The version and model tables of catalog format 4, verbatim from the
#: release that wrote it (``store_meta``, ``vals`` and ``columns`` did
#: not change and are left in place).
FORMAT4_DDL = """
CREATE TABLE versions (
    tenant        TEXT NOT NULL DEFAULT 'default',
    version       INTEGER NOT NULL,
    state         TEXT NOT NULL CHECK (state IN ('staging', 'published', 'corrupt')),
    kind          TEXT NOT NULL CHECK (kind IN ('snapshot', 'graph')),
    parent        INTEGER,
    generation    INTEGER,
    created_at    REAL NOT NULL,
    published_at  REAL,
    built_s       REAL,
    nodes         INTEGER,
    edges         INTEGER,
    graph_class   TEXT,
    next_edge_id  INTEGER,
    meta          BLOB,
    PRIMARY KEY (tenant, version)
);
CREATE TABLE nodes (
    tenant    TEXT NOT NULL DEFAULT 'default',
    bare      INTEGER NOT NULL DEFAULT 0,
    id_ref    INTEGER NOT NULL,
    born      INTEGER NOT NULL,
    died      INTEGER,
    seq       INTEGER NOT NULL,
    label_ref INTEGER,
    intern    INTEGER,
    PRIMARY KEY (tenant, bare, id_ref, born)
) WITHOUT ROWID;
CREATE INDEX nodes_by_intern ON nodes (tenant, born, intern)
    WHERE intern IS NOT NULL;
CREATE TABLE node_props (
    tenant    TEXT NOT NULL DEFAULT 'default',
    bare      INTEGER NOT NULL DEFAULT 0,
    owner     INTEGER NOT NULL,
    ordinal   INTEGER NOT NULL,
    born      INTEGER NOT NULL,
    died      INTEGER,
    name_ref  INTEGER NOT NULL,
    value_ref INTEGER NOT NULL,
    PRIMARY KEY (tenant, bare, owner, ordinal, born)
) WITHOUT ROWID;
CREATE TABLE edges (
    tenant      TEXT NOT NULL DEFAULT 'default',
    bare        INTEGER NOT NULL DEFAULT 0,
    edge_id_ref INTEGER NOT NULL,
    born        INTEGER NOT NULL,
    died        INTEGER,
    seq         INTEGER NOT NULL,
    src_seq     INTEGER NOT NULL,
    dst_seq     INTEGER NOT NULL,
    label_ref   INTEGER,
    PRIMARY KEY (tenant, bare, edge_id_ref, born)
) WITHOUT ROWID;
CREATE TABLE edge_props (
    tenant    TEXT NOT NULL DEFAULT 'default',
    bare      INTEGER NOT NULL DEFAULT 0,
    owner     INTEGER NOT NULL,
    ordinal   INTEGER NOT NULL,
    born      INTEGER NOT NULL,
    died      INTEGER,
    name_ref  INTEGER NOT NULL,
    value_ref INTEGER NOT NULL,
    PRIMARY KEY (tenant, bare, owner, ordinal, born)
) WITHOUT ROWID;
"""

#: Per format-4 table, the columns format 5 kept (its whole row).
FORMAT5_COLUMNS = {
    "versions": (
        "tenant, version, state, parent, generation, created_at, published_at,"
        " built_s, nodes, edges, graph_class, next_edge_id, meta"
    ),
    "nodes": "tenant, id_ref, born, died, seq, label_ref",
    "node_props": "tenant, owner, ordinal, born, died, name_ref, value_ref",
    "edges": "tenant, edge_id_ref, born, died, seq, src_seq, dst_seq, label_ref",
    "edge_props": "tenant, owner, ordinal, born, died, name_ref, value_ref",
}


def write_format4_graph(conn, vdir, tenant, version):
    """One published ``kind = 'graph'`` version as the out-of-core writer
    of formats 1 to 4 left it: P1 --0.5--> C1 in ``bare = 1`` rows alive
    at exactly ``version``, ``seq`` = insertion position, ``intern`` =
    rank of the id, and a directory of edge columns the version owns."""
    ref = cat.ValueInterner(conn).ref
    life = (tenant, version, version + 1)
    conn.execute(
        "INSERT INTO versions (tenant, version, state, kind, created_at,"
        " published_at, nodes, edges, graph_class, next_edge_id)"
        " VALUES (?, ?, 'published', 'graph', 0.0, 0.0, 2, 1, 'CompanyGraph', 1)",
        (tenant, version),
    )
    conn.executemany(
        "INSERT INTO nodes (tenant, bare, born, died, id_ref, seq, label_ref, intern)"
        " VALUES (?, 1, ?, ?, ?, ?, ?, ?)",
        [(*life, ref("P1"), 0, ref("person"), 1),
         (*life, ref("C1"), 1, ref("company"), 0)],
    )
    conn.execute(
        "INSERT INTO node_props (tenant, bare, born, died, owner, ordinal,"
        " name_ref, value_ref) VALUES (?, 1, ?, ?, 0, 0, ?, ?)",
        (*life, ref("name"), ref("Ada")),
    )
    conn.execute(
        "INSERT INTO edges (tenant, bare, born, died, edge_id_ref, seq, src_seq,"
        " dst_seq, label_ref) VALUES (?, 1, ?, ?, ?, 0, 0, 1, ?)",
        (*life, ref("e0"), ref("shareholding")),
    )
    conn.execute(
        "INSERT INTO edge_props (tenant, bare, born, died, owner, ordinal,"
        " name_ref, value_ref) VALUES (?, 1, ?, ?, 0, 0, ?, ?)",
        (*life, ref("w"), ref(0.5)),
    )
    vdir.mkdir(parents=True)
    for name, array in (
        ("edge_src", np.array([1], dtype=np.int64)),
        ("edge_dst", np.array([0], dtype=np.int64)),
        ("edge_w", np.array([0.5])),
    ):
        crc = write_column(vdir / f"{name}.npy", array)
        conn.execute(
            "INSERT INTO columns VALUES (?, ?, ?, ?, 1, ?, ?, ?)",
            (tenant, version, name, array.dtype.str, array.nbytes, crc, version),
        )


def downgrade_to_format4(root, graphs=()):
    """Rewrite the catalog of the store at ``root`` as format 4: every
    version a ``kind = 'snapshot'``, every model row ``bare = 0``, plus
    one streamed graph version per ``(tenant, version)`` of ``graphs``
    (format 4 coded and shared row-state columns as format 5 does)."""
    downgrade_to_format5(root)
    store = FrameStore(root)
    conn = sqlite3.connect(str(root / "catalog.db"), isolation_level=None)
    conn.execute("BEGIN")
    for table in FORMAT5_COLUMNS:
        conn.execute(f"ALTER TABLE {table} RENAME TO {table}_new")
    for statement in FORMAT4_DDL.split(";"):
        if statement.strip():
            conn.execute(statement)
    for table, columns in FORMAT5_COLUMNS.items():
        extra, value = ("kind", "'snapshot'") if table == "versions" else ("bare", "0")
        conn.execute(
            f"INSERT INTO {table} ({columns}, {extra})"
            f" SELECT {columns}, {value} FROM {table}_new"
        )
        conn.execute(f"DROP TABLE {table}_new")
    for tenant, version in graphs:
        write_format4_graph(conn, store.version_dir(version, tenant), tenant, version)
    conn.execute("UPDATE store_meta SET value = '4' WHERE key = 'format'")
    conn.execute("COMMIT")
    conn.close()

#: The ``columns`` manifest of formats 1 to 3 (format 1 without the
#: tenant): no ``origin`` — every version owned a file per row.
FORMAT3_COLUMNS_DDL = """
CREATE TABLE columns (
    tenant  TEXT NOT NULL DEFAULT 'default',
    version INTEGER NOT NULL,
    name    TEXT NOT NULL,
    dtype   TEXT NOT NULL,
    length  INTEGER NOT NULL,
    nbytes  INTEGER NOT NULL,
    crc32   INTEGER NOT NULL,
    PRIMARY KEY (tenant, version, name)
)
"""

#: The frame buffers a snapshot version carried up to format 3, next to
#: its row state (the shared-memory codec's export of that release).
FORMAT3_FRAME_COLUMNS = (
    "edge_src", "edge_dst", "walk_weights", "insertion_codes",
    "csr_indptr", "csr_targets", "csr_positions",
    "csc_indptr", "csc_sources", "csc_positions",
    "walker_indptr", "walker_neighbors", "walker_keys", "walker_degrees",
    "share_src", "share_dst", "share_w",
    "ownership_data", "ownership_indices", "ownership_indptr",
)

#: What a snapshot version carried up to format 3.
FORMAT3_SNAPSHOT_COLUMNS = (*FORMAT3_FRAME_COLUMNS, *ROW_COLUMNS)


def downgrade_to_format3(root, snapshots, graphs=()):
    """Rewrite the column side of the store at ``root`` as format 3 did
    it: the previous release's persist loop, per snapshot version all 31
    columns written whole into its own directory, and a manifest without
    ``origin`` (streamed graph versions keep their rows and files)."""
    downgrade_to_format4(root, graphs)
    store = FrameStore(root)
    conn = sqlite3.connect(str(root / "catalog.db"), isolation_level=None)
    conn.execute("BEGIN")
    conn.execute("ALTER TABLE columns RENAME TO columns_new")
    conn.execute(FORMAT3_COLUMNS_DDL)
    conn.execute(
        "INSERT INTO columns SELECT c.tenant, c.version, c.name, c.dtype, c.length,"
        " c.nbytes, c.crc32 FROM columns_new c JOIN versions v"
        " ON v.tenant = c.tenant AND v.version = c.version WHERE v.kind = 'graph'"
    )
    conn.execute("DROP TABLE columns_new")
    for (tenant, version), snapshot in snapshots.items():
        # the migration drops the frame buffers unread: an edge-sized
        # int64 column stands in for each
        buffers = dict.fromkeys(FORMAT3_FRAME_COLUMNS, GraphFrame.of(snapshot.graph).edge_src)
        buffers.update(legacy_rows(snapshot))
        vdir = store.version_dir(version, tenant)
        vdir.mkdir(parents=True, exist_ok=True)
        for name in FORMAT3_SNAPSHOT_COLUMNS:
            array = np.ascontiguousarray(buffers[name])
            crc = write_column(vdir / f"{name}.npy", array)
            conn.execute(
                "INSERT INTO columns VALUES (?, ?, ?, ?, ?, ?, ?)",
                (tenant, version, name, array.dtype.str, array.shape[0],
                 array.nbytes, crc),
            )
    conn.execute("UPDATE store_meta SET value = '3' WHERE key = 'format'")
    conn.execute("COMMIT")
    conn.close()


#: The model and version tables of catalog format 2, verbatim from the
#: release that wrote it (``store_meta`` and ``vals`` did not change and
#: are left in place; ``columns`` is format 3's).
FORMAT2_DDL = """
CREATE TABLE versions (
    tenant        TEXT NOT NULL DEFAULT 'default',
    version       INTEGER NOT NULL,
    state         TEXT NOT NULL CHECK (state IN ('staging', 'published', 'corrupt')),
    kind          TEXT NOT NULL CHECK (kind IN ('snapshot', 'graph')),
    parent        INTEGER,
    generation    INTEGER,
    created_at    REAL NOT NULL,
    published_at  REAL,
    built_s       REAL,
    nodes         INTEGER,
    edges         INTEGER,
    graph_class   TEXT,
    next_edge_id  INTEGER,
    aug_next_edge_id INTEGER,
    meta          BLOB,
    PRIMARY KEY (tenant, version)
);
CREATE TABLE nodes (
    tenant    TEXT NOT NULL DEFAULT 'default',
    version   INTEGER NOT NULL,
    pos       INTEGER NOT NULL,
    id_ref    INTEGER NOT NULL,
    label_ref INTEGER,
    intern    INTEGER,
    PRIMARY KEY (tenant, version, pos)
);
CREATE INDEX nodes_by_id ON nodes (tenant, version, id_ref);
CREATE INDEX nodes_by_intern ON nodes (tenant, version, intern);
CREATE TABLE node_props (
    tenant    TEXT NOT NULL DEFAULT 'default',
    version   INTEGER NOT NULL,
    pos       INTEGER NOT NULL,
    ordinal   INTEGER NOT NULL,
    name_ref  INTEGER NOT NULL,
    value_ref INTEGER NOT NULL,
    PRIMARY KEY (tenant, version, pos, ordinal)
);
CREATE TABLE edges (
    tenant      TEXT NOT NULL DEFAULT 'default',
    version     INTEGER NOT NULL,
    layer       INTEGER NOT NULL,
    pos         INTEGER NOT NULL,
    edge_id_ref INTEGER NOT NULL,
    src_pos     INTEGER NOT NULL,
    dst_pos     INTEGER NOT NULL,
    label_ref   INTEGER,
    PRIMARY KEY (tenant, version, layer, pos)
);
CREATE TABLE edge_props (
    tenant    TEXT NOT NULL DEFAULT 'default',
    version   INTEGER NOT NULL,
    layer     INTEGER NOT NULL,
    pos       INTEGER NOT NULL,
    ordinal   INTEGER NOT NULL,
    name_ref  INTEGER NOT NULL,
    value_ref INTEGER NOT NULL,
    PRIMARY KEY (tenant, version, layer, pos, ordinal)
);
"""

LEGACY_TABLES = ("versions", "nodes", "node_props", "edges", "edge_props")

#: Format-1 column lists: format 2 minus the tenant dimension.
FORMAT1_COLUMNS = {
    "versions": (
        "version, state, kind, parent, generation, created_at, published_at,"
        " built_s, nodes, edges, graph_class, next_edge_id, aug_next_edge_id, meta"
    ),
    "columns": "version, name, dtype, length, nbytes, crc32",
    "nodes": "version, pos, id_ref, label_ref, intern",
    "node_props": "version, pos, ordinal, name_ref, value_ref",
    "edges": "version, layer, pos, edge_id_ref, src_pos, dst_pos, label_ref",
    "edge_props": "version, layer, pos, ordinal, name_ref, value_ref",
}


def write_format2_model(conn, tenant, version, snapshot):
    """The previous release's per-version model writer: every node, node
    property, base edge (layer 0) and derived edge (layer 1), keyed by
    position."""
    interner = cat.ValueInterner(conn)
    graph, augmented = snapshot.graph, reference_augmented(snapshot)
    index = GraphFrame.of(graph).index
    node_pos = {}
    for pos, node in enumerate(graph.nodes()):
        node_pos[node.id] = pos
        label_ref = None if node.label is None else interner.ref(node.label)
        conn.execute(
            "INSERT INTO nodes VALUES (?, ?, ?, ?, ?, ?)",
            (tenant, version, pos, interner.ref(node.id), label_ref, index[node.id]),
        )
        for ordinal, (name, value) in enumerate(node.properties.items()):
            conn.execute(
                "INSERT INTO node_props VALUES (?, ?, ?, ?, ?, ?)",
                (tenant, version, pos, ordinal, interner.ref(name), interner.ref(value)),
            )
    base_edge_ids = {edge.id for edge in graph.edges()}
    layers = (
        (0, list(graph.edges())),
        (1, [e for e in augmented.edges() if e.id not in base_edge_ids]),
    )
    for layer, edges in layers:
        for pos, edge in enumerate(edges):
            label_ref = None if edge.label is None else interner.ref(edge.label)
            conn.execute(
                "INSERT INTO edges VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (tenant, version, layer, pos, interner.ref(edge.id),
                 node_pos[edge.source], node_pos[edge.target], label_ref),
            )
            for ordinal, (name, value) in enumerate(edge.properties.items()):
                conn.execute(
                    "INSERT INTO edge_props VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (tenant, version, layer, pos, ordinal,
                     interner.ref(name), interner.ref(value)),
                )
    conn.execute(
        "UPDATE versions SET aug_next_edge_id = ? WHERE tenant = ? AND version = ?",
        (augmented._next_edge_id, tenant, version),
    )


def downgrade_to_format2(root, snapshots, graphs=()):
    """Rewrite the catalog of the store at ``root`` as format 2.

    ``snapshots`` maps ``(tenant, version)`` to the snapshot persisted
    under it; bare-graph versions are converted row by row in SQL.
    """
    downgrade_to_format3(root, snapshots, graphs)
    conn = sqlite3.connect(str(root / "catalog.db"), isolation_level=None)
    conn.execute("BEGIN")
    conn.execute("DROP INDEX nodes_by_intern")
    for table in LEGACY_TABLES:
        conn.execute(f"ALTER TABLE {table} RENAME TO {table}_new")
    for statement in FORMAT2_DDL.split(";"):
        if statement.strip():
            conn.execute(statement)
    copied = FORMAT1_COLUMNS["versions"].replace("aug_next_edge_id, ", "")
    conn.execute(
        f"INSERT INTO versions (tenant, {copied}) SELECT tenant, {copied}"
        " FROM versions_new"
    )
    conn.execute(
        "INSERT INTO nodes SELECT tenant, born, seq, id_ref, label_ref, intern"
        " FROM nodes_new WHERE bare = 1"
    )
    conn.execute(
        "INSERT INTO edges SELECT tenant, born, 0, seq, edge_id_ref, src_seq,"
        " dst_seq, label_ref FROM edges_new WHERE bare = 1"
    )
    conn.execute(
        "INSERT INTO node_props SELECT tenant, born, owner, ordinal, name_ref,"
        " value_ref FROM node_props_new WHERE bare = 1"
    )
    conn.execute(
        "INSERT INTO edge_props SELECT tenant, born, 0, owner, ordinal, name_ref,"
        " value_ref FROM edge_props_new WHERE bare = 1"
    )
    for (tenant, version), snapshot in snapshots.items():
        write_format2_model(conn, tenant, version, snapshot)
    for table in LEGACY_TABLES:
        conn.execute(f"DROP TABLE {table}_new")
    conn.execute("UPDATE store_meta SET value = '2' WHERE key = 'format'")
    conn.execute("COMMIT")
    conn.execute("VACUUM")
    conn.close()


def downgrade_to_format1(root):
    """Rewrite a format-2 store as the exact format-1 layout: tenantless
    tables, top-level ``versions/v*`` directories, format marker 1."""
    conn = sqlite3.connect(str(root / "catalog.db"))
    for table, cols in FORMAT1_COLUMNS.items():
        conn.execute(f"ALTER TABLE {table} RENAME TO {table}_v2")
        conn.execute(f"CREATE TABLE {table} AS SELECT {cols} FROM {table}_v2")
        conn.execute(f"DROP TABLE {table}_v2")
    conn.execute("DROP INDEX IF EXISTS nodes_by_id")
    conn.execute("DROP INDEX IF EXISTS nodes_by_intern")
    conn.execute("UPDATE store_meta SET value = '1' WHERE key = 'format'")
    conn.commit()
    conn.close()
    default_dir = root / "versions" / "default"
    for entry in list(default_dir.iterdir()):
        entry.rename(root / "versions" / entry.name)
    default_dir.rmdir()


def fingerprint(snapshot):
    """Everything an attach must reproduce, in a comparable form."""
    graph, augmented = snapshot.graph, reference_augmented(snapshot)
    companies = [node.id for node in graph.companies()]
    return {
        "nodes": repr([(n.id, n.label, list(n.properties.items()))
                       for n in graph.nodes()]),
        "edges": repr([(e.id, e.source, e.target, e.label, list(e.properties.items()))
                       for e in graph.edges()]),
        "next_edge_id": graph._next_edge_id,
        "augmented": repr([(e.id, e.source, e.target, e.label)
                           for e in augmented.edges()]),
        "rows": (snapshot.family_rows, snapshot.control_rows, snapshot.close_rows,
                 snapshot.ubo),
        "payloads": json.dumps([
            snapshot.control_payload(),
            snapshot.close_links_payload(),
            snapshot.family_payload(),
            snapshot.ubo_payloads(companies),
            snapshot.stats_payload(),
            [snapshot.neighbors_payload(n.id) for n in graph.nodes()],
        ]),
    }


def frame_bytes(graph):
    """The frame of ``graph`` as bytes (see ``frame_fingerprint``)."""
    return frame_fingerprint(GraphFrame.of(graph))


def evolving_snapshots(seed, versions):
    """Consecutive snapshots whose graphs add, change and remove things."""
    graph, _ = generate_company_graph(
        CompanySpec(persons=24, companies=20, seed=seed)
    )
    builder = SnapshotBuilder(
        SnapshotConfig(augment=True, first_level_clusters=1, use_embeddings=False)
    )
    out = [builder.build(graph)]
    for i in range(versions - 1):
        graph = graph.copy()
        graph.add_company(f"C_EXTRA{i}", name=f"Extra {i}")
        first = next(iter(graph.companies()))
        graph.add_shareholding(first.id, f"C_EXTRA{i}", 0.3)
        graph.set_property(first.id, "name", f"Renamed {i}")
        if i % 2:
            graph.remove_edge(next(iter(graph.edges())).id)
        out.append(builder.build(graph))
    return out


#: Where the legacy fixtures of :func:`mixed_store` hold a streamed graph.
MIXED_GRAPHS = (("default", 3),)


def mixed_store(root):
    """A two-tenant store, one tenant's numbering skipping the version
    :data:`MIXED_GRAPHS` interleaves a streamed graph at:
    ``(snapshots by (tenant, version), their attach fingerprints)``."""
    store = FrameStore.create(root)
    snapshots = {}
    for version, snapshot in enumerate(evolving_snapshots(5, 2), start=1):
        store.persist(snapshot)
        snapshots["default", version] = snapshot
    late = SnapshotBuilder(SnapshotConfig(augment=False), start_version=3).build(
        snapshots["default", 2].graph
    )
    store.persist(late)
    snapshots["default", 4] = late
    for version, snapshot in enumerate(evolving_snapshots(7, 3), start=1):
        store.persist(snapshot, tenant="beta")
        snapshots["beta", version] = snapshot
    before = {key: fingerprint(store.attach(key[1], tenant=key[0])) for key in snapshots}
    return snapshots, before


@pytest.fixture
def legacy_store(tmp_path):
    """:func:`mixed_store` rewritten as format 2; yields ``(root,
    fingerprints taken before the rewrite)``."""
    root = tmp_path / "store"
    snapshots, before = mixed_store(root)
    downgrade_to_format2(root, snapshots, MIXED_GRAPHS)
    return root, before


def assert_no_trace_of(store, graphs):
    """The streamed graph versions a legacy fixture held are gone: no
    catalog row, no model row, no manifest row, no directory."""
    listed = {(v["tenant"], v["version"]) for v in store.versions()}
    with store._connect() as conn:
        for tenant, version in graphs:
            assert (tenant, version) not in listed
            assert not store.version_dir(version, tenant).exists()
            for table, column in (
                ("columns", "version"), *((t, "born") for t in cat.MODEL_TABLES)
            ):
                assert conn.execute(
                    f"SELECT COUNT(*) FROM {table} WHERE tenant = ? AND {column} = ?",
                    (tenant, version),
                ).fetchone()[0] == 0


def schema_columns(conn):
    """Every column name of the version and model tables."""
    return {
        row[1]
        for table in ("versions", *cat.MODEL_TABLES)
        for row in conn.execute(f"PRAGMA table_info({table})")
    }


class TestMigration:
    def test_format4_store_loses_its_graph_versions_and_nothing_else(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        store = FrameStore.create(root)
        first, second, third = evolving_snapshots(5, 3)
        second.version = 3  # alpha's numbering leaves 2 to the graph
        for snapshot in (first, second):
            store.persist(snapshot, tenant="alpha")
        before = {v: fingerprint(store.attach(v, tenant="alpha")) for v in (1, 3)}
        files = {
            (v, name): column_path(store, v, name, "alpha").read_bytes()
            for v in (1, 3) for name in ROW_COLUMNS
        }
        graphs = (("alpha", 2), ("beta", 1))
        downgrade_to_format4(root, graphs)
        assert (root / "versions" / "alpha" / "v00000002" / "edge_w.npy").is_file()
        assert (root / "versions" / "beta" / "v00000001").is_dir()

        def counts():
            with sqlite3.connect(str(root / "catalog.db")) as conn:
                assert cat.catalog_format(conn) == 4
                return {
                    table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                    for table in ("versions", "columns", *cat.MODEL_TABLES)
                }

        legacy_counts = counts()
        assert legacy_counts["versions"] == 4

        def explode(*args, **kwargs):
            raise RuntimeError("power cut")

        with monkeypatch.context() as patched:
            patched.setattr(cat, "set_format", explode)  # after every copy and drop
            with pytest.raises(RuntimeError, match="power cut"):
                FrameStore.open(root)
        assert counts() == legacy_counts
        assert (root / "versions" / "beta" / "v00000001").is_dir()

        migrated = FrameStore.open(root)  # migration runs inside open
        with migrated._connect() as conn:
            assert cat.catalog_format(conn) == cat.CATALOG_FORMAT == 6
            assert not {"kind", "bare", "intern"} & schema_columns(conn)
            assert conn.execute(
                "SELECT COUNT(*) FROM sqlite_master"
                " WHERE name = 'nodes_by_intern' OR name LIKE '%_legacy'"
            ).fetchone()[0] == 0
        assert migrated.tenants() == ["alpha"]
        assert [(v["tenant"], v["version"]) for v in migrated.versions()] == [
            ("alpha", 1), ("alpha", 3),
        ]
        assert_no_trace_of(migrated, graphs)
        assert_files_match_manifest(migrated)
        for version, snapshot in ((1, first), (3, second)):
            attached = migrated.attach(version, tenant="alpha")
            assert fingerprint(attached) == before[version]
            assert frame_bytes(attached.graph) == frame_bytes(snapshot.graph)
        assert files == {
            (v, name): column_path(migrated, v, name, "alpha").read_bytes()
            for v, name in files
        }
        # the migrated tenant keeps growing: a delta against v3, shared columns
        third.version = 4
        assert migrated.persist(third, tenant="alpha") == 4
        assert migrated.versions(tenant="alpha")[-1]["parent"] == 3
        assert migrated.last_persist["rows_inserted"] < 10
        assert migrated.last_persist["columns_shared"] > 0
        assert fingerprint(migrated.attach(4, tenant="alpha")) == fingerprint(third)

    def test_format2_store_migrates_and_every_version_attaches_equal(
        self, legacy_store
    ):
        root, before = legacy_store
        legacy_bytes = (root / "catalog.db").stat().st_size
        with sqlite3.connect(str(root / "catalog.db")) as conn:
            assert cat.catalog_format(conn) == 2
            assert conn.execute(
                "SELECT COUNT(*) FROM edges WHERE layer = 1"
            ).fetchone()[0] > 0

        migrated = FrameStore.open(root)  # migration runs inside open
        with migrated._connect() as conn:
            assert cat.catalog_format(conn) == cat.CATALOG_FORMAT
            tables = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )}
            assert not {t for t in tables if t.endswith("_legacy")}
            assert "layer" not in {row[1] for row in conn.execute(
                "PRAGMA table_info(edges)"
            )}
        assert migrated.tenants() == ["beta", "default"]
        assert migrated.published_versions() == [1, 2, 4]
        assert_no_trace_of(migrated, MIXED_GRAPHS)
        for (tenant, version), expected in before.items():
            assert fingerprint(migrated.attach(version, tenant=tenant)) == expected
        assert_files_match_manifest(migrated)
        # the per-version copies are gone and the file actually shrank
        assert (root / "catalog.db").stat().st_size < legacy_bytes
        # the migrated streams keep growing
        graph = migrated.attach(3, tenant="beta").graph.copy()
        graph.add_company("C_AFTER")
        snap = SnapshotBuilder(
            SnapshotConfig(augment=False), start_version=3
        ).build(graph)
        assert migrated.persist(snap, tenant="beta") == 4
        assert migrated.attach(4, tenant="beta").graph.has_node("C_AFTER")
        assert migrated.last_persist["rows_inserted"] < 10

    def test_failed_migration_rolls_back_to_the_intact_legacy_catalog(
        self, legacy_store, monkeypatch
    ):
        root, before = legacy_store

        def explode(*args, **kwargs):
            raise RuntimeError("power cut")

        with monkeypatch.context() as patched:
            patched.setattr(model, "write_delta", explode)
            with pytest.raises(RuntimeError, match="power cut"):
                FrameStore.open(root)
        with sqlite3.connect(str(root / "catalog.db")) as conn:
            assert cat.catalog_format(conn) == 2
            assert conn.execute(
                "SELECT COUNT(*) FROM edges WHERE layer = 1"
            ).fetchone()[0] > 0
        migrated = FrameStore.open(root)
        for (tenant, version), expected in before.items():
            assert fingerprint(migrated.attach(version, tenant=tenant)) == expected

    def test_format3_store_drops_its_frame_buffers_and_attaches_byte_identically(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        snapshots, before = mixed_store(root)
        downgrade_to_format3(root, snapshots, MIXED_GRAPHS)
        legacy_bytes = sum(p.stat().st_size for p in root.glob("versions/*/v*/*"))
        for tenant, version in snapshots:
            files = {p.stem for p in (root / "versions" / tenant
                                      / f"v{version:08d}").iterdir()}
            assert files == set(FORMAT3_SNAPSHOT_COLUMNS)

        def explode(*args, **kwargs):
            raise RuntimeError("power cut")

        with monkeypatch.context() as patched:
            patched.setattr(cat, "adopt_legacy_columns", explode)
            with pytest.raises(RuntimeError, match="power cut"):
                FrameStore.open(root)
        with sqlite3.connect(str(root / "catalog.db")) as conn:
            assert cat.catalog_format(conn) == 3
            assert "origin" not in {row[1] for row in conn.execute(
                "PRAGMA table_info(columns)"
            )}
        assert sum(p.stat().st_size for p in root.glob("versions/*/v*/*")) == legacy_bytes

        migrated = FrameStore.open(root)  # migration runs inside open
        with migrated._connect() as conn:
            assert cat.catalog_format(conn) == cat.CATALOG_FORMAT
            assert conn.execute(
                "SELECT COUNT(*) FROM columns WHERE origin != version"
            ).fetchone()[0] == 0  # existing rows own their files
        assert_files_match_manifest(migrated)
        assert_no_trace_of(migrated, MIXED_GRAPHS)
        for (tenant, version), snapshot in snapshots.items():
            files = {p.stem for p in migrated.version_dir(version, tenant).iterdir()}
            assert files == set(ROW_COLUMNS)  # no frame-buffer file left
            attached = migrated.attach(version, tenant=tenant)
            assert fingerprint(attached) == before[tenant, version]
            assert frame_bytes(attached.graph) == frame_bytes(snapshot.graph)
        assert sum(
            p.stat().st_size for p in root.glob("versions/*/v*/*")
        ) < legacy_bytes / 2
        # the migrated streams keep growing, sharing what did not change
        graph = snapshots["beta", 3].graph.copy()
        graph.add_company("C_AFTER")
        snap = SnapshotBuilder(
            SnapshotConfig(augment=False), start_version=3
        ).build(graph)
        assert migrated.persist(snap, tenant="beta") == 4
        assert migrated.last_persist["columns_shared"] > 0
        assert fingerprint(migrated.attach(4, tenant="beta")) == fingerprint(snap)

    def test_format1_store_reaches_the_current_format(self, tmp_path):
        root = tmp_path / "store"
        store = FrameStore.create(root)
        snapshots = {}
        for version, snapshot in enumerate(evolving_snapshots(5, 3), start=1):
            store.persist(snapshot)
            snapshots["default", version] = snapshot
        before = {key: fingerprint(store.attach(key[1])) for key in snapshots}
        downgrade_to_format2(root, snapshots, graphs=(("default", 4),))
        downgrade_to_format1(root)
        assert (root / "versions" / "v00000001").is_dir()
        assert (root / "versions" / "v00000004").is_dir()

        migrated = FrameStore.open(root)
        with migrated._connect() as conn:
            assert cat.catalog_format(conn) == cat.CATALOG_FORMAT
        assert migrated.tenants() == ["default"]
        assert migrated.published_versions() == [1, 2, 3]
        assert not (root / "versions" / "v00000001").exists()
        assert migrated.version_dir(1).is_dir()
        assert_no_trace_of(migrated, (("default", 4),))
        for (tenant, version), expected in before.items():
            attached = migrated.attach(version)
            assert attached.store_tenant == "default"
            assert fingerprint(attached) == expected
        assert_files_match_manifest(migrated)

    def test_unknown_format_fails_with_one_line(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "store"
        FrameStore.create(root)
        with sqlite3.connect(str(root / "catalog.db")) as conn:
            conn.execute("UPDATE store_meta SET value = '9' WHERE key = 'format'")
        with pytest.raises(StoreError) as raised:
            FrameStore.open(root)
        message = str(raised.value)
        assert "newer build" in message and "format 9" in message
        assert f"reads up to {cat.CATALOG_FORMAT}" in message
        assert "corrupt" not in message and "\n" not in message

        assert main(["store", "versions", str(root)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

        # a catalog that cannot say what it is stays "corrupt"
        with sqlite3.connect(str(root / "catalog.db")) as conn:
            conn.execute("DELETE FROM store_meta WHERE key = 'format'")
        with pytest.raises(StoreError, match="corrupt store catalog"):
            FrameStore.open(root)


def relabelled_graph(seed):
    """A generated graph whose ids are permuted within each label and
    whose nodes and edges are inserted in shuffled order, so neither the
    insertion order nor ``seq`` order is string order.  ``"ZZZ"``, an
    isolated company inserted first, sorts after every other id."""
    source, _ = generate_company_graph(CompanySpec(persons=24, companies=20, seed=seed))
    rng = random.Random(seed)
    mapping = {}
    for label in ("C", "P"):
        ids = [node.id for node in source.nodes(label)]
        permuted = ids[:]
        rng.shuffle(permuted)
        mapping.update(zip(ids, permuted))
    nodes, edges = list(source.nodes()), list(source.edges())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    graph = CompanyGraph()
    graph.add_company("ZZZ", name="Last SpA")
    for node in nodes:
        graph.add_node(mapping[node.id], node.label, **node.properties)
    for edge in edges:
        graph.add_edge(
            mapping[edge.source], mapping[edge.target], edge.label, **edge.properties
        )
    return graph


def relabelled_stream(seed=5):
    """Five snapshot versions over :func:`relabelled_graph`: a company
    whose id sorts first joins, ``"ZZZ"`` leaves (the intern ranks of
    the rest stay, every ``seq`` position moves), a person with family
    links leaves, and a new company comes under a controlling stake."""
    graph = relabelled_graph(seed)
    builder = SnapshotBuilder(
        SnapshotConfig(augment=True, first_level_clusters=1, use_embeddings=False)
    )
    out = [builder.build(graph)]
    linked = out[0].family_rows[0][0]
    owner = out[0].control_rows[0][0]

    def step(change):
        nonlocal graph
        graph = graph.copy()
        change(graph)
        out.append(builder.build(graph))

    step(lambda g: g.add_company("0", name="First SpA"))
    step(lambda g: g.remove_node("ZZZ"))
    step(lambda g: g.remove_node(linked))
    step(lambda g: (g.add_company("C_NEW"), g.add_shareholding(owner, "C_NEW", 0.6)))
    return out


def format5_store(root):
    """:func:`relabelled_stream` persisted and recoded as format 5 wrote
    it; returns the snapshots and every column file's bytes."""
    store = FrameStore.create(root)
    snapshots = relabelled_stream()
    for snapshot in snapshots:
        store.persist(snapshot)
    store.close()
    downgrade_to_format5(root)
    return snapshots, files_on_disk(root)


def files_on_disk(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted((root / "versions").glob("*/v*/*.npy"))
    }


def every_file(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestRecodeFormat5:
    """Format 5 -> 6 on a store whose ids are not in insertion order,
    where decoding format-5 codes as positions would serve wrong rows."""

    def test_every_version_serves_the_same_bytes(self, tmp_path):
        root = tmp_path / "store"
        snapshots, legacy = format5_store(root)
        with sqlite3.connect(str(root / "catalog.db")) as conn:
            assert cat.catalog_format(conn) == 5
        with sqlite3.connect(str(root / "catalog.db")) as conn:  # no migration
            legacy_manifest = {}
            for version, name, origin in conn.execute(
                "SELECT version, name, origin FROM columns"
            ):
                legacy_manifest.setdefault(version, {})[name] = origin
        # the company that sorts first moves every format-5 code ...
        assert all(legacy_manifest[2][name] == 2 for name in CODE_COLUMNS)
        # ... and the file v2 and v3 share recodes differently for each
        shared = [name for name in CODE_COLUMNS if legacy_manifest[3][name] == 2]
        assert "control_x" in shared and "family_x" in shared

        migrated = FrameStore.open(root)
        with migrated._connect() as conn:
            assert cat.catalog_format(conn) == cat.CATALOG_FORMAT == 6
        assert not migrated.remapped_root.exists()
        for snapshot in snapshots:
            assert fingerprint(migrated.attach(snapshot.version)) == fingerprint(snapshot)
        recoded = manifest(migrated)
        assert all(recoded[3][name] == 3 for name in shared)
        assert_files_match_manifest(migrated)
        # the recoded stream keeps growing: an isolated company writes no column
        graph = snapshots[-1].graph.copy()
        graph.add_company("00")
        snapshot = SnapshotBuilder(snapshots[-1].config, start_version=5).build(graph)
        migrated.persist(snapshot)
        assert migrated.last_persist["columns_written"] == 0
        assert fingerprint(migrated.attach(6)) == fingerprint(snapshot)

    def test_a_shared_file_splits_where_the_width_grows(self, tmp_path):
        """256 nodes code in uint8, 257 in uint16: a file two format-5
        versions on either side of the boundary shared recodes to equal
        values at two widths, so each version gets its own."""
        graph, _ = generate_company_graph(CompanySpec(persons=140, companies=100, seed=3))
        for i in range(256 - len(graph)):
            graph.add_company(f"C_PAD{i}")
        builder = SnapshotBuilder(SnapshotConfig(augment=False))
        snapshots = [builder.build(graph)]
        graph = graph.copy()
        graph.add_company("ZZZ")  # sorts and is inserted last: no code moves
        snapshots.append(builder.build(graph))
        assert [len(s.graph) for s in snapshots] == [256, 257]
        root = tmp_path / "store"
        store = FrameStore.create(root)
        for snapshot in snapshots:
            store.persist(snapshot)
        store.close()
        downgrade_to_format5(root)
        assert manifest(FrameStore(root))[2]["control_x"] == 1
        gc.collect()  # closes the connection ``manifest`` dropped

        migrated = FrameStore.open(root)
        for snapshot in snapshots:
            attached = migrated.attach(snapshot.version, verify=True)
            assert fingerprint(attached) == fingerprint(snapshot)
        assert migrated.attach_latest().version == 2
        assert manifest(migrated)[2]["control_x"] == 2
        for version, width in ((1, np.uint8), (2, np.uint16)):
            assert np.load(column_path(migrated, version, "control_x")).dtype == width
        assert_files_match_manifest(migrated)

    def test_a_raw_connection_reads_the_store_as_it_is(self, tmp_path):
        """Only :meth:`FrameStore.open` migrates: a connection taken to
        inspect a format-5 store leaves every file as it was."""
        root = tmp_path / "store"
        snapshots, _legacy = format5_store(root)
        before = every_file(root)
        conn = FrameStore(root)._connect()
        try:
            assert cat.catalog_format(conn) == 5
        finally:
            conn.close()
        legacy_manifest = manifest(FrameStore(root))
        gc.collect()  # closes the connection ``manifest`` dropped
        assert every_file(root) == before
        assert all(legacy_manifest[2][name] == 2 for name in CODE_COLUMNS)

        migrated = FrameStore.open(root)
        with migrated._connect() as conn:
            assert cat.catalog_format(conn) == 6
        for snapshot in snapshots:
            assert fingerprint(migrated.attach(snapshot.version)) == fingerprint(snapshot)

    def test_a_column_that_fails_its_checksum_is_demoted_not_recoded(self, tmp_path):
        root = tmp_path / "store"
        snapshots, _legacy = format5_store(root)
        torn = root / "versions" / "default" / "v00000005" / "control_x.npy"
        data = torn.read_bytes()
        torn.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))

        migrated = FrameStore.open(root)
        assert [v["state"] for v in migrated.versions()] == ["published"] * 4 + ["corrupt"]
        assert migrated.attach_latest().version == 4
        for snapshot in snapshots[:4]:
            assert fingerprint(migrated.attach(snapshot.version)) == fingerprint(snapshot)

    def test_a_crash_before_the_commit_leaves_the_format5_store(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        snapshots, legacy = format5_store(root)
        written = []
        real = store_module.write_column

        def power_cut(path, array):
            if len(written) == 3:
                raise RuntimeError("power cut")
            written.append(path)
            return real(path, array)

        with monkeypatch.context() as patched:
            patched.setattr(store_module, "write_column", power_cut)
            with pytest.raises(RuntimeError, match="power cut"):
                FrameStore.open(root)
        with sqlite3.connect(str(root / "catalog.db")) as conn:
            assert cat.catalog_format(conn) == 5
        assert files_on_disk(root) == legacy

        migrated = FrameStore.open(root)
        assert not migrated.remapped_root.exists()
        for snapshot in snapshots:
            assert fingerprint(migrated.attach(snapshot.version)) == fingerprint(snapshot)
        assert_files_match_manifest(migrated)

    def test_a_crash_between_two_moves_is_finished_by_the_next_open(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "store"
        snapshots, _legacy = format5_store(root)
        moved = []
        real = store_module.os.replace

        def power_cut(source, target):
            if moved:
                raise RuntimeError("power cut")
            moved.append(target)
            real(source, target)

        with monkeypatch.context() as patched:
            patched.setattr(store_module.os, "replace", power_cut)
            with pytest.raises(RuntimeError, match="power cut"):
                FrameStore.open(root)
        with sqlite3.connect(str(root / "catalog.db")) as conn:
            assert cat.catalog_format(conn) == 6
        assert len(moved) == 1 and (root / "remapped").is_dir()

        migrated = FrameStore.open(root)
        assert not migrated.remapped_root.exists()
        for snapshot in snapshots:
            assert fingerprint(migrated.attach(snapshot.version)) == fingerprint(snapshot)
        assert_files_match_manifest(migrated)
        finished = files_on_disk(root)
        migrated.close()
        FrameStore.open(root).close()  # nothing left to recode or move
        assert files_on_disk(root) == finished


def int64_encoder(snapshot):
    """:func:`encode_rows` as format 6 wrote before the width rule: the
    same rows, codes and classes as int64."""
    buffers, classes = encode_rows(snapshot)
    return {
        name: array.astype(np.int64) if name in INT64_COLUMNS else array
        for name, array in buffers.items()
    }, classes


class TestInt64Store:
    """A format-6 store whose code columns are int64 — every store
    written before the width rule — needs no migration."""

    def test_attaches_equal_then_narrows_at_its_next_publish(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        snapshots = evolving_snapshots(5, 2)
        store = FrameStore.create(root)
        with monkeypatch.context() as patched:
            patched.setattr(snapshot_module, "encode_rows", int64_encoder)
            for snapshot in snapshots:
                store.persist(snapshot)
        store.close()
        wide = files_on_disk(root)
        widths = {path.stem: np.load(root / path).dtype for path in wide}
        assert {widths[name] for name in INT64_COLUMNS} == {np.dtype(np.int64)}

        reopened = FrameStore.open(root)
        assert files_on_disk(root) == wide  # no migration, no rewrite
        for snapshot in snapshots:
            assert fingerprint(reopened.attach(snapshot.version)) == fingerprint(snapshot)
        assert_files_match_manifest(reopened)

        # the next publish writes every int64 column narrow, once ...
        graph = snapshots[-1].graph.copy()
        graph.add_company("C_NARROW")
        builder = SnapshotBuilder(snapshots[-1].config, start_version=len(snapshots))
        narrow = builder.build(graph)
        reopened.persist(narrow)
        assert reopened.last_persist["columns_written"] == len(INT64_COLUMNS)
        assert reopened.last_persist["columns_shared"] == len(ROW_COLUMNS) - len(INT64_COLUMNS)
        for name in INT64_COLUMNS:
            path = column_path(reopened, narrow.version, name)
            assert np.load(path).dtype.itemsize < 8, name
        assert fingerprint(reopened.attach(narrow.version)) == fingerprint(narrow)
        # ... and sharing resumes: an isolated company writes no column
        graph = graph.copy()
        graph.add_company("C_ISOLATED")
        isolated = builder.build(graph)
        reopened.persist(isolated)
        assert reopened.last_persist["columns_written"] == 0
        assert fingerprint(reopened.attach(isolated.version)) == fingerprint(isolated)
        assert_files_match_manifest(reopened)
