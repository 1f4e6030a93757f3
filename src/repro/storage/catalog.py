"""The SQLite catalog behind the durable frame store.

One ``catalog.db`` per store holds everything that is not a numeric
column: version metadata (state machine, lineage, checksum manifest) and
the node/edge property model, value-interned so a property value is
stored once no matter how many rows carry it, and *interval-encoded* so
a row is stored once no matter how many versions it lives through.

Schema overview (format 6; format 5 had the same schema, its row-state
columns coded nodes by intern rank instead of by ``seq`` position):

``store_meta``
    key/value pairs for the store itself — format version, creation time.
``versions``
    one row per persisted version of one tenant.  ``state`` is the
    publish state machine: rows are born ``staging``, flip to
    ``published`` in a single ``UPDATE`` (the atomic-publish instant),
    and can be demoted to ``corrupt`` by the self-heal path when an
    attach fails verification.  Version numbers are per-tenant: two
    tenants may both hold a version 3.
``columns``
    the per-version manifest: one row per npy column a version carries,
    with dtype, length, byte size, data CRC-32 and ``origin`` — the
    version (of the same tenant) in whose directory the file lives.  A
    version whose column equals its predecessor's byte for byte
    names the predecessor's file instead of writing its own, so a column
    file exists exactly as long as some manifest row names it.  Attach
    refuses any column whose on-disk bytes disagree with this manifest.
``vals``
    the value-intern table.  Every node id, label, property name, and
    property value is one row, referenced by integer id from the graph
    tables.  ``kind`` is a one-byte type tag (see :func:`encode_value`);
    ``value`` is the encoded BLOB.
``nodes`` / ``node_props`` / ``edges`` / ``edge_props``
    the property-graph model as **interval tables**.  A row is keyed by
    the stable identity of what it describes — the node's id ref, the
    edge's id ref, ``(owner, ordinal)`` for a property — and carries the
    version it was ``born`` at and the version it ``died`` at (``NULL``
    while it lives).  Nodes and edges also carry ``seq``, an order key
    assigned when the identity first appears and unchanged while it
    lives; edges name their endpoints by node ``seq`` and properties
    name their ``owner`` by its ``seq``.  The model of version *v* of a
    tenant is::

        WHERE tenant = ? AND born <= v
              AND (died IS NULL OR died > v)   ORDER BY seq

    so a publish that changes three shareholdings writes a handful of
    rows, not a copy of the graph (:mod:`repro.storage.model` computes
    the delta).  ``gc`` deletes what no kept version can see:
    ``died <=`` the oldest kept version of the tenant.
"""

from __future__ import annotations

import json
import pickle
import sqlite3
from typing import Any, Iterable

#: Bump on incompatible schema or column changes; open rejects mismatches
#: (after attempting the supported in-place migrations, formats 1 to 5 -> 6).
CATALOG_FORMAT = 6

SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS versions (
    tenant        TEXT NOT NULL DEFAULT 'default',
    version       INTEGER NOT NULL,
    state         TEXT NOT NULL CHECK (state IN ('staging', 'published', 'corrupt')),
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
CREATE TABLE IF NOT EXISTS columns (
    tenant  TEXT NOT NULL DEFAULT 'default',
    version INTEGER NOT NULL,
    name    TEXT NOT NULL,
    dtype   TEXT NOT NULL,
    length  INTEGER NOT NULL,
    nbytes  INTEGER NOT NULL,
    crc32   INTEGER NOT NULL,
    origin  INTEGER NOT NULL,
    PRIMARY KEY (tenant, version, name)
);
CREATE TABLE IF NOT EXISTS vals (
    id    INTEGER PRIMARY KEY,
    kind  TEXT NOT NULL,
    value BLOB NOT NULL,
    UNIQUE (kind, value)
);
CREATE TABLE IF NOT EXISTS nodes (
    tenant    TEXT NOT NULL DEFAULT 'default',
    id_ref    INTEGER NOT NULL,
    born      INTEGER NOT NULL,
    died      INTEGER,
    seq       INTEGER NOT NULL,
    label_ref INTEGER,
    PRIMARY KEY (tenant, id_ref, born)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS node_props (
    tenant    TEXT NOT NULL DEFAULT 'default',
    owner     INTEGER NOT NULL,
    ordinal   INTEGER NOT NULL,
    born      INTEGER NOT NULL,
    died      INTEGER,
    name_ref  INTEGER NOT NULL,
    value_ref INTEGER NOT NULL,
    PRIMARY KEY (tenant, owner, ordinal, born)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS edges (
    tenant      TEXT NOT NULL DEFAULT 'default',
    edge_id_ref INTEGER NOT NULL,
    born        INTEGER NOT NULL,
    died        INTEGER,
    seq         INTEGER NOT NULL,
    src_seq     INTEGER NOT NULL,
    dst_seq     INTEGER NOT NULL,
    label_ref   INTEGER,
    PRIMARY KEY (tenant, edge_id_ref, born)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS edge_props (
    tenant    TEXT NOT NULL DEFAULT 'default',
    owner     INTEGER NOT NULL,
    ordinal   INTEGER NOT NULL,
    born      INTEGER NOT NULL,
    died      INTEGER,
    name_ref  INTEGER NOT NULL,
    value_ref INTEGER NOT NULL,
    PRIMARY KEY (tenant, owner, ordinal, born)
) WITHOUT ROWID;
"""

#: The interval tables holding the property model, in a purge-safe order.
MODEL_TABLES = ("edge_props", "edges", "node_props", "nodes")

#: Rows visible at version ``?`` (bind it twice).
LIVE_AT = "born <= ? AND (died IS NULL OR died > ?)"


def connect(path: str) -> sqlite3.Connection:
    # isolation_level=None puts the driver in autocommit so transaction
    # boundaries are exactly the explicit BEGIN/COMMIT the store issues —
    # the publish-flip atomicity depends on owning those boundaries.  A
    # store shares its one connection across threads under its own lock.
    conn = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=FULL")
    conn.execute("PRAGMA foreign_keys=ON")
    return conn


def create_tables(conn: sqlite3.Connection) -> None:
    """Run the schema statement by statement (``executescript`` would
    commit the caller's open transaction).  The schema holds no embedded
    semicolons, so a plain split works."""
    for statement in SCHEMA.split(";"):
        if statement.strip():
            conn.execute(statement)


def init_schema(conn: sqlite3.Connection) -> None:
    create_tables(conn)
    conn.execute(
        "INSERT OR IGNORE INTO store_meta (key, value) VALUES ('format', ?)",
        (str(CATALOG_FORMAT),),
    )
    conn.commit()


def purge_unpublished(conn: sqlite3.Connection, tenant: str, version: int) -> None:
    """Delete every trace of a version that never published: its
    ``versions`` and ``columns`` rows.  (A version writes its model rows
    in the transaction that publishes it, so a staging one has none.)"""
    for table in ("columns", "versions"):
        conn.execute(
            f"DELETE FROM {table} WHERE tenant = ? AND version = ?",
            (tenant, version),
        )


def adopt_legacy_columns(
    conn: sqlite3.Connection, snapshot_columns: Iterable[str]
) -> None:
    """Fill the ``columns`` table from ``columns_legacy`` (the manifest
    of formats 1 to 3, tenant column present): every row owns its file,
    and a version keeps only ``snapshot_columns`` — the frame-buffer
    columns older formats also persisted are recomputed from the graph
    on attach, so their rows go (and with them, on the next
    :meth:`FrameStore.open`, their files).  Drops the legacy table."""
    names = tuple(snapshot_columns)
    conn.execute(
        "INSERT INTO columns (tenant, version, name, dtype, length, nbytes, crc32,"
        " origin) SELECT c.tenant, c.version, c.name, c.dtype, c.length, c.nbytes,"
        " c.crc32, c.version FROM columns_legacy c JOIN versions v"
        " ON v.tenant = c.tenant AND v.version = c.version"
        f" WHERE c.name IN ({','.join('?' * len(names))})",
        names,
    )
    conn.execute("DROP TABLE columns_legacy")


def set_format(conn: sqlite3.Connection, value: int) -> None:
    conn.execute(
        "UPDATE store_meta SET value = ? WHERE key = 'format'", (str(value),)
    )


def migrate_v3(conn: sqlite3.Connection, snapshot_columns: Iterable[str]) -> None:
    """Rewrite a format-3 catalog in place as format 4 — only the
    ``columns`` manifest changed (see :func:`adopt_legacy_columns`) —
    and carry on to format 5 (:func:`migrate_v4`).  One
    transaction per step, so a crash leaves an intact catalog of the
    format it had reached."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        conn.execute("ALTER TABLE columns RENAME TO columns_legacy")
        create_tables(conn)
        adopt_legacy_columns(conn, snapshot_columns)
        set_format(conn, 4)
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    migrate_v4(conn)


def table_columns(conn: sqlite3.Connection, table: str) -> str:
    """The columns of ``table`` as an SQL list — what a migration copies
    out of the renamed-aside table of the same name."""
    return ", ".join(row[1] for row in conn.execute(f"PRAGMA table_info({table})"))


def migrate_v4(conn: sqlite3.Connection) -> None:
    """Rewrite a format-4 catalog in place as format 5, which has one
    kind of version: format 4 also held ``kind = 'graph'`` versions
    (streamed graphs nothing could serve) whose model rows carried
    ``bare = 1``.  Those versions, their manifest and their rows are
    dropped — the next :meth:`FrameStore.open` sweeps their directories
    — and every other row is copied without the ``kind`` / ``bare`` /
    ``intern`` columns.  One transaction, so a crash leaves the intact
    format-4 catalog."""
    kept = {"versions": "kind = 'snapshot'", **dict.fromkeys(MODEL_TABLES, "bare = 0")}
    conn.execute("BEGIN IMMEDIATE")
    try:
        for table in kept:
            conn.execute(f"ALTER TABLE {table} RENAME TO {table}_legacy")
        create_tables(conn)
        for table, where in kept.items():
            columns = table_columns(conn, table)
            conn.execute(
                f"INSERT INTO {table} ({columns})"
                f" SELECT {columns} FROM {table}_legacy WHERE {where}"
            )
            conn.execute(f"DROP TABLE {table}_legacy")
        conn.execute(
            "DELETE FROM columns WHERE (tenant, version) NOT IN"
            " (SELECT tenant, version FROM versions)"
        )
        set_format(conn, 5)
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    compact(conn)


def compact(conn: sqlite3.Connection) -> None:
    """Hand the pages a migration freed back to the filesystem.  In WAL
    mode the rebuilt file lands in the log; the checkpoint is what
    truncates ``catalog.db`` itself."""
    conn.execute("VACUUM")
    conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")


def catalog_format(conn: sqlite3.Connection) -> int:
    row = conn.execute(
        "SELECT value FROM store_meta WHERE key = 'format'"
    ).fetchone()
    if row is None:
        raise ValueError("catalog carries no format marker")
    return int(row[0])


# -- value codec ------------------------------------------------------
#
# One-byte kind tag + BLOB, chosen so the common cases (strings, ints,
# floats) are human-readable in the sqlite shell and strings sort
# bytewise in Python str order.  bool is checked before int (bool is an
# int subclass); json containers must survive an exact round-trip or
# they fall back to pickle (tuples, non-string dict keys).


def encode_value(value: Any) -> tuple[str, bytes]:
    if value is None:
        return "n", b""
    if isinstance(value, bool):
        return "b", b"1" if value else b"0"
    if isinstance(value, int):
        return "i", str(value).encode("ascii")
    if isinstance(value, float):
        return "f", repr(value).encode("ascii")
    if isinstance(value, str):
        return "s", value.encode("utf-8")
    if isinstance(value, (list, dict)):
        try:
            payload = json.dumps(value, separators=(",", ":"))
            if json.loads(payload) == value:
                return "j", payload.encode("utf-8")
        except (TypeError, ValueError):
            pass
    return "p", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_value(kind: str, blob: bytes) -> Any:
    if kind == "n":
        return None
    if kind == "b":
        return blob == b"1"
    if kind == "i":
        return int(blob)
    if kind == "f":
        return float(blob)
    if kind == "s":
        return blob.decode("utf-8")
    if kind == "j":
        return json.loads(blob)
    if kind == "p":
        return pickle.loads(blob)
    raise ValueError(f"unknown value kind {kind!r}")


class ValueInterner:
    """Write-side intern cache over the ``vals`` table.

    Looks a value up before inserting it, so a value already in ``vals``
    costs one read and the table is only written for values it has never
    seen.  The cache is bounded: mostly-unique value streams (every node
    id, every birth date) would otherwise grow it linearly with graph
    size.  On overflow it is simply cleared — the table stays
    authoritative.
    """

    def __init__(self, conn: sqlite3.Connection, cache_limit: int = 1 << 17) -> None:
        self._conn = conn
        self._cache: dict[tuple[str, bytes], int] = {}
        self._cache_limit = cache_limit

    def ref(self, value: Any) -> int:
        return self.ref_encoded(encode_value(value))

    def ref_encoded(self, key: tuple[str, bytes]) -> int:
        """The ``vals`` id of an already encoded ``(kind, blob)`` pair."""
        ref = self._cache.get(key)
        if ref is None:
            row = self._conn.execute(
                "SELECT id FROM vals WHERE kind = ? AND value = ?", key
            ).fetchone()
            if row is not None:
                ref = row[0]
            else:
                ref = self._conn.execute(
                    "INSERT INTO vals (kind, value) VALUES (?, ?)", key
                ).lastrowid
            if len(self._cache) >= self._cache_limit:
                self._cache.clear()
            self._cache[key] = ref
        return ref


class ValueLoader:
    """Read-side decode cache; prefetch in batches to cut round trips."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        self._cache: dict[int, Any] = {}

    def prefetch(self, refs: Iterable[int]) -> None:
        missing = [r for r in set(refs) if r is not None and r not in self._cache]
        for start in range(0, len(missing), 500):
            chunk = missing[start : start + 500]
            marks = ",".join("?" * len(chunk))
            for ref, kind, blob in self._conn.execute(
                f"SELECT id, kind, value FROM vals WHERE id IN ({marks})", chunk
            ):
                self._cache[ref] = decode_value(kind, blob)

    def get(self, ref: int | None) -> Any:
        if ref is None:
            return None
        if ref not in self._cache:
            self.prefetch([ref])
        return self._cache[ref]
