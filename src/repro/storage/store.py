"""The durable frame store: versioned on-disk snapshots, mmap attach.

A store is one directory::

    store/
      catalog.db            # SQLite catalog (see repro.storage.catalog)
      versions/
        default/            # one directory per tenant...
          v00000001/        # ...one per version that owns column files
            control_x.npy   # the snapshot row state (ROW_COLUMNS): what
            ...             # reasoning derived, nothing numpy can rebuild

Version streams are per tenant: two tenants may both hold a version 3,
and every catalog row carries its tenant.  Older stores are migrated in
place by :meth:`FrameStore.open`, and by nothing else: a format-1 store (single stream, ``versions/v*`` at
the top level) becomes the ``default`` tenant's stream, the per-version
model copies of formats 1 and 2 are folded into interval rows
(:func:`repro.storage.model.migrate_legacy`), the frame-buffer
columns of formats 1 to 3 are dropped (:func:`.catalog.migrate_v3`), and
the streamed ``kind='graph'`` versions formats 1 to 4 could also hold —
nothing ever read them — are discarded (:func:`.catalog.migrate_v4`), and
the code columns of formats 1 to 5, which numbered nodes by intern rank,
are recoded by ``seq`` position (:meth:`FrameStore._migrate_v5`).

:meth:`FrameStore.persist` makes a snapshot durable by writing **only
what changed** since the tenant's newest persisted version: into the
catalog the model rows that differ (interval tables, diffed by
:mod:`repro.storage.model` against a baseline kept in memory), onto disk
the row-state columns whose bytes differ from the file the parent's
manifest names — an equal column gets a manifest row pointing at that
file's owning version (the file itself is compared, never a checksum,
so a corrupt parent is not inherited).  Each column is written in the
dtype :func:`.layout.encode_rows` gave it — codes at the narrowest
width the node count allows — and the manifest records that dtype; a
store whose files are wider (int64 codes, as every store was before the
width rule) attaches as it is, and its next publish writes each column
narrow once, a dtype change counting as a changed column.  The frame buffers are pure
functions of the graph and are not stored.  One code path: a first
version has an empty baseline and no parent.  The publish discipline is
the in-memory
:class:`~repro.service.snapshot.SnapshotManager` swap's:

1. **claim** — a ``versions`` row is inserted in state ``staging``
   (its own transaction, so a concurrent persist of the same version
   fails fast);
2. **write** — the columns that changed land in a fresh version
   directory and are fsynced (file and directory; often there are none);
3. **flip** — one transaction inserts the manifest, closes and inserts
   the model rows that changed, and runs the
   ``UPDATE versions SET state='published'``.  That commit *is* the
   publish: a crash anywhere before it leaves a ``staging`` carcass —
   and not one model row touched — that :meth:`open` purges on the next
   boot, and a crash after it leaves a fully published version.  A
   persist that fails without killing the process (disk full) purges
   its own claim before the error propagates.

The baseline is trusted only for the version it was taken from: inside
the flip transaction the store checks that this is still the catalog's
newest version of the tenant, and re-reads the model from the
catalog when it is not (a restart, a second process writing the same
directory).  :attr:`FrameStore.last_persist` says what the last persist
wrote.

:meth:`FrameStore.attach` is the inverse: the base graph is rebuilt
from the catalog rows visible at that version, in ``seq`` order, and the
row-state columns are mapped read-only (``np.load(..., mmap_mode="r")``)
from whichever version owns each file.  A column codes a node by its
position in the graph's node order, and :func:`.model.write_delta`
keeps ``seq`` order equal to that order, so the rebuilt graph decodes
the columns with no other table and no frame.  The shared-memory segment
carries the same two things, so both paths end in
:mod:`repro.storage.layout` and :meth:`Snapshot.from_columns`: a
snapshot decodes the same from either.  Since a node added at the end
takes the next position, a publish that adds nodes but changes no
derived row rewrites no code column — unless the node count crosses 256
or 65 536, which widens every code column once.

:meth:`FrameStore.attach_latest` self-heals: a published version that
fails verification (truncated column, checksum mismatch) is demoted to
``corrupt`` in the catalog and the next older published version is
tried, so one bad version never bricks a store.

:meth:`FrameStore.gc` prunes history: published versions beyond the
newest ``keep`` per tenant, and ``corrupt`` ones older
than the oldest kept, are dropped from the catalog together with the
model rows that died at or before the oldest kept version.  On disk a
column file is deleted exactly when no manifest row names it, a version
directory when it is empty.  The latest published version of every
tenant and staging rows are never pruned.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import sqlite3
import threading
import time
import weakref
import zlib
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from ..graph.columnar import intern_sort_key
from ..graph.company_graph import CompanyGraph
from ..graph.property_graph import PropertyGraph
from ..service.registry import validate_tenant
from ..service.snapshot import DEFAULT_TENANT, Snapshot
from . import catalog as cat
from .layout import CODE_COLUMNS, ROW_COLUMNS, code_dtype
from .model import Baseline, migrate_legacy, read_model, write_delta
from .npyio import column_equals, data_crc32, fsync_dir, write_column

#: Graph classes a stored model may rebuild into.
GRAPH_CLASSES: dict[str, type[PropertyGraph]] = {
    "PropertyGraph": PropertyGraph,
    "CompanyGraph": CompanyGraph,
}

#: Columns a version must carry: the row state, which cost
#: reasoning time.  The frame buffers are recomputed from the graph.
SNAPSHOT_COLUMNS = ROW_COLUMNS


class StoreError(RuntimeError):
    """A store that is missing, corrupt, or asked for an unknown version."""


class InjectedCrash(RuntimeError):
    """Raised by the test-only crash hook; never caught by the store."""


class StoredSnapshot(Snapshot):
    """A snapshot whose row-state columns are read-only mmaps of store files.

    Behaves exactly like a built :class:`Snapshot` (the per-row identity
    tests assert it); additionally records where it came from.
    """

    store_path: Path
    store_version: int
    store_tenant: str


class FrameStore:
    """One durable store directory; every public method is self-contained.

    A store object keeps one catalog connection from :meth:`open` /
    :meth:`create` to :meth:`close`, shared by the threads that use it
    (persists run on a service's executor threads, boot reads on the
    main thread) under one lock, so persists and reads never interleave.
    Closing the last connection is what checkpoints the WAL and removes
    ``catalog.db-wal`` / ``-shm``: a persist pays no checkpoint, and a
    clean shutdown leaves the catalog as one file.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.catalog_path = self.root / "catalog.db"
        self.versions_root = self.root / "versions"
        #: where the format-5 migration stages the code columns it
        #: rewrites until the catalog names them (:meth:`_migrate_v5`)
        self.remapped_root = self.root / "remapped"
        #: test-only fault injection: set to a stage name to raise
        #: :class:`InjectedCrash` mid-persist (no cleanup runs — the
        #: point is to leave exactly what a kill would leave).
        self.crash_point: str | None = None
        #: what the most recent successful :meth:`persist` wrote:
        #: ``tenant``, ``version``, ``rows_inserted`` / ``rows_closed``
        #: (model rows), ``columns_written`` / ``columns_shared``,
        #: ``column_bytes`` (bytes of the written ones) and ``seconds``
        self.last_persist: dict[str, Any] | None = None
        #: the catalog connection, ``None`` before open and after close
        self._conn: sqlite3.Connection | None = None
        #: held for every use of ``_conn`` (re-entrant: attach reads the
        #: version list through the public methods)
        self._lock = threading.RLock()
        #: tenant -> model of the newest version this object
        #: persisted or attached; only ever used after the flip
        #: transaction has confirmed it is still the catalog's newest
        self._baselines: dict[str, Baseline] = {}

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path) -> "FrameStore":
        store = cls(root)
        store.root.mkdir(parents=True, exist_ok=True)
        store.versions_root.mkdir(exist_ok=True)
        store._adopt(store._connect())
        cat.init_schema(store._conn)
        fsync_dir(store.root)
        return store

    @classmethod
    def open(cls, root: str | Path) -> "FrameStore":
        """Open an existing store, migrating its catalog to the current
        format first (the only place a migration runs)."""
        store = cls(root)
        if not store.root.is_dir() or not store.catalog_path.is_file():
            raise StoreError(f"store not found: {store.root}")
        store._adopt(store._connect())
        store._upgrade(store._conn)
        store._recover(store._conn)
        return store

    @classmethod
    def open_or_create(cls, root: str | Path) -> "FrameStore":
        exists = cls(root).catalog_path.is_file()
        return cls.open(root) if exists else cls.create(root)

    def _adopt(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        # A store dropped without close() closes its connection at once,
        # and one still open closes at interpreter exit: an sqlite3
        # connection sits in a reference cycle, so it would otherwise
        # wait for the cyclic GC, which may run in a forked child.
        self._closer = weakref.finalize(self, conn.close)

    def close(self) -> None:
        """Close the catalog connection (idempotent); later calls raise
        :class:`StoreError`.  Waits for a persist in progress."""
        with self._lock:
            if self._conn is not None:
                self._closer()
                self._conn = None

    @contextlib.contextmanager
    def _catalog(self) -> Iterator[sqlite3.Connection]:
        """The store's connection, held under its lock."""
        with self._lock:
            if self._conn is None:
                raise StoreError(f"store {self.root} is closed")
            yield self._conn

    def _connect(self) -> sqlite3.Connection:
        """A new catalog connection to the store as it is, in whatever
        format (only :meth:`open` migrates); :meth:`open` / :meth:`create`
        keep the one they open."""
        try:
            return cat.connect(str(self.catalog_path))
        except sqlite3.DatabaseError as exc:
            raise StoreError(f"corrupt store catalog: {exc}") from exc

    def _upgrade(self, conn: sqlite3.Connection) -> None:
        """Migrate the catalog (and the files it names) to the current
        format, finishing a migration a crash interrupted."""
        try:
            found = cat.catalog_format(conn)
            if found > cat.CATALOG_FORMAT:
                raise StoreError(
                    f"store {self.root} was written by a newer build: catalog"
                    f" format {found}, this build reads up to {cat.CATALOG_FORMAT}"
                )
            if found == 1:
                # Move the single v1 stream's directories under the
                # default tenant first (the move is idempotent, so a
                # crash between the two steps re-runs it harmlessly).
                self._relocate_v1_dirs()
            if found in (1, 2):
                migrate_legacy(conn, SNAPSHOT_COLUMNS)
            elif found == 3:
                cat.migrate_v3(conn, SNAPSHOT_COLUMNS)
            elif found == 4:
                cat.migrate_v4(conn)
            elif found not in (5, cat.CATALOG_FORMAT):
                raise ValueError(f"catalog format {found} unsupported")
            if found < cat.CATALOG_FORMAT:
                self._migrate_v5(conn)
            if self.remapped_root.is_dir():
                self._place_remapped()
        except (sqlite3.DatabaseError, ValueError) as exc:
            raise StoreError(f"corrupt store catalog: {exc}") from exc

    def _migrate_v5(self, conn: sqlite3.Connection) -> None:
        """Recode a format-5 store's row-state columns as format 6.

        Format 5 coded a node by its rank under
        :func:`~repro.graph.columnar.intern_sort_key`, format 6 codes it
        by its position in the version's ``seq`` order — the node order
        attach rebuilds the graph in.  Row order does not change, so
        each code column of each published version is a pure value
        remap.  The recoded columns, and ``family_class``, are written
        at the width :func:`.layout.code_dtype` gives (format 5 wrote
        int64), so the migrated files are the ones a persist of the same
        snapshot writes and the stream's next publish shares them.
        Versions are recoded oldest first per tenant.  A file two
        consecutive versions shared stays shared when it recodes to the
        same values at the same width for both, and splits when it does
        not: a node removed in between shifts the positions after its
        own, whatever its intern rank, and a node count crossing 256 or
        65 536 widens the codes.

        The new files are written under :attr:`remapped_root`, never over
        a format-5 file, and one transaction then points the manifest at
        them and sets format 6; :meth:`_place_remapped` moves them into
        place.  A crash before the commit leaves the intact format-5
        store (the next open starts over), one after it a format-6 store
        whose next open finishes the moves: no file is ever recoded
        twice.  A version whose column does not verify is demoted to
        ``corrupt`` rather than recoded.
        """
        shutil.rmtree(self.remapped_root, ignore_errors=True)
        recoded_columns = (*CODE_COLUMNS, "family_class")
        names = ", ".join("?" * len(recoded_columns))
        updates: list[tuple[int, str, int, int, str, int, str]] = []
        demoted: list[tuple[str, int]] = []
        # the tenant recoded last, and per column of its last version the
        # file it read, the recoded array and the file that now holds it
        stream, previous = None, {}
        for tenant, version, meta in conn.execute(
            "SELECT tenant, version, meta FROM versions WHERE state = 'published'"
            " ORDER BY tenant, version"
        ).fetchall():
            if tenant != stream:
                stream, previous = tenant, {}
            ids = list(read_model(conn, tenant, version)[0].node_ids())
            # format-5 code -> seq position
            remap = np.asarray(
                sorted(range(len(ids)), key=lambda i: intern_sort_key(ids[i])),
                dtype=code_dtype(len(ids)),
            )
            arrays: dict[str, tuple[int, np.ndarray]] = {}
            try:
                class_width = code_dtype(len(pickle.loads(meta)["family_classes"]))
                for name, crc, origin in conn.execute(
                    "SELECT name, crc32, origin FROM columns WHERE tenant = ?"
                    f" AND version = ? AND name IN ({names})",
                    (tenant, version, *recoded_columns),
                ):
                    path = self.version_dir(origin, tenant) / f"{name}.npy"
                    if data_crc32(path) != crc:
                        raise ValueError(f"checksum mismatch in {path}")
                    stored = np.load(path)
                    arrays[name] = origin, (
                        stored.astype(class_width)
                        if name == "family_class"
                        else remap[stored]
                    )
            except (OSError, ValueError, EOFError, IndexError, pickle.UnpicklingError):
                demoted.append((tenant, version))
                continue
            recoded: dict[str, tuple[int, np.ndarray, int]] = {}
            for name, (read, array) in arrays.items():
                shared = previous.get(name)
                # equal values at another width are another file: a
                # version across 256 nodes from its parent codes wider
                if (
                    shared is not None
                    and shared[0] == read
                    and shared[1].dtype == array.dtype
                    and np.array_equal(shared[1], array)
                ):
                    origin = shared[2]
                    crc = zlib.crc32(array.tobytes())
                else:
                    origin = version
                    vdir = self.remapped_root / tenant / f"v{version:08d}"
                    vdir.mkdir(parents=True, exist_ok=True)
                    crc = write_column(vdir / f"{name}.npy", array)
                updates.append(
                    (origin, array.dtype.str, array.nbytes, crc, tenant, version, name)
                )
                recoded[name] = read, array, origin
            previous = recoded
        if self.remapped_root.is_dir():  # durable before the catalog names it
            for directory in (*self.remapped_root.glob("*/*"), *self.remapped_root.glob("*")):
                fsync_dir(directory)
            fsync_dir(self.remapped_root)
            fsync_dir(self.root)
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "UPDATE columns SET origin = ?, dtype = ?, nbytes = ?, crc32 = ?"
                " WHERE tenant = ? AND version = ? AND name = ?",
                updates,
            )
            conn.executemany(
                "UPDATE versions SET state = 'corrupt' WHERE tenant = ? AND version = ?",
                demoted,
            )
            cat.set_format(conn, cat.CATALOG_FORMAT)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def _place_remapped(self) -> None:
        """Move the columns :meth:`_migrate_v5` staged into their version
        directories, over the format-5 files they replace.  A file is
        moved at most once (a rename removes its source), so a crash
        between two moves is finished by the next open."""
        for staged in sorted(self.remapped_root.glob("*/v*/*.npy")):
            target = self.versions_root / staged.parent.parent.name / staged.parent.name
            target.mkdir(parents=True, exist_ok=True)
            os.replace(staged, target / staged.name)
            fsync_dir(target)
            fsync_dir(target.parent)
        shutil.rmtree(self.remapped_root)
        fsync_dir(self.root)

    def _relocate_v1_dirs(self) -> None:
        if not self.versions_root.is_dir():
            return
        target = self.versions_root / DEFAULT_TENANT
        moved = False
        for entry in list(self.versions_root.iterdir()):
            name = entry.name
            if entry.is_dir() and name.startswith("v") and name[1:].isdigit():
                target.mkdir(exist_ok=True)
                entry.rename(target / name)
                moved = True
        if moved:
            fsync_dir(target)
            fsync_dir(self.versions_root)

    def _recover(self, conn: sqlite3.Connection) -> None:
        """Purge staging carcasses left by a crash mid-persist, and every
        file a crash (or a migration) left without a manifest row."""
        staged = conn.execute(
            "SELECT tenant, version FROM versions WHERE state = 'staging'"
        ).fetchall()
        for tenant, version in staged:
            cat.purge_unpublished(conn, tenant, version)
        conn.commit()
        self._sweep(conn)

    def _sweep(self, conn: sqlite3.Connection) -> None:
        """Delete every file in a version directory that no manifest row
        names, and every version directory that leaves empty.  The
        directory of a ``staging`` version is a writer's work in progress
        (its manifest rows arrive with the flip) and is left alone."""
        named: dict[tuple[str, int], set[str]] = {}
        for tenant, origin, name in conn.execute(
            "SELECT DISTINCT tenant, origin, name FROM columns"
        ):
            named.setdefault((tenant, origin), set()).add(f"{name}.npy")
        staging = set(
            conn.execute("SELECT tenant, version FROM versions WHERE state = 'staging'")
        )
        for vdir in list(self.versions_root.glob("*/v*")):
            if not (vdir.is_dir() and vdir.name[1:].isdigit()):
                continue
            key = (vdir.parent.name, int(vdir.name[1:]))
            if key in staging:
                continue
            keep = named.get(key, ())
            for entry in vdir.iterdir():
                if entry.name in keep:
                    continue
                if entry.is_dir():
                    shutil.rmtree(entry, ignore_errors=True)
                else:
                    entry.unlink()
            if not keep:
                vdir.rmdir()

    def version_dir(self, version: int, tenant: str = DEFAULT_TENANT) -> Path:
        return self.versions_root / tenant / f"v{version:08d}"

    def _maybe_crash(self, stage: str) -> None:
        if self.crash_point == stage:
            raise InjectedCrash(stage)

    # -- introspection --------------------------------------------------

    def versions(self, tenant: str | None = None) -> list[dict[str, Any]]:
        """Catalog rows for every version, oldest first per tenant."""
        keys = (
            "tenant", "version", "state", "parent", "generation",
            "created_at", "published_at", "built_s", "nodes", "edges",
        )
        query = f"SELECT {', '.join(keys)} FROM versions"
        params: tuple[Any, ...] = ()
        if tenant is not None:
            query += " WHERE tenant = ?"
            params = (tenant,)
        query += " ORDER BY tenant, version"
        with self._catalog() as conn:
            rows = conn.execute(query, params).fetchall()
        return [dict(zip(keys, row)) for row in rows]

    def model_rows(self) -> dict[tuple[str, int], int]:
        """``(tenant, version)`` -> model rows born at that version: what
        each persist added to the catalog (one full scan of the model
        tables — an inspection aid, not a hot path)."""
        counts: dict[tuple[str, int], int] = {}
        with self._catalog() as conn:
            for table in cat.MODEL_TABLES:
                for tenant, born, n in conn.execute(
                    f"SELECT tenant, born, COUNT(*) FROM {table} GROUP BY tenant, born"
                ):
                    counts[tenant, born] = counts.get((tenant, born), 0) + n
        return counts

    def column_files(self) -> dict[tuple[str, int], tuple[int, int]]:
        """``(tenant, version)`` -> ``(files, bytes)`` of the column files
        that version owns: what each persist added to the disk."""
        with self._catalog() as conn:
            return {
                (tenant, version): (files, nbytes)
                for tenant, version, files, nbytes in conn.execute(
                    "SELECT tenant, version, COUNT(*), SUM(nbytes) FROM columns"
                    " WHERE origin = version GROUP BY tenant, version"
                )
            }

    def tenants(self) -> list[str]:
        """Every tenant holding at least one version, sorted."""
        with self._catalog() as conn:
            return [
                row[0]
                for row in conn.execute(
                    "SELECT DISTINCT tenant FROM versions ORDER BY tenant"
                )
            ]

    def published_versions(self, tenant: str = DEFAULT_TENANT) -> list[int]:
        with self._catalog() as conn:
            return [
                row[0]
                for row in conn.execute(
                    "SELECT version FROM versions"
                    " WHERE state = 'published' AND tenant = ? ORDER BY version",
                    (tenant,),
                )
            ]

    def latest_version(self, tenant: str = DEFAULT_TENANT) -> int | None:
        published = self.published_versions(tenant)
        return published[-1] if published else None

    def newest_version(self, tenant: str = DEFAULT_TENANT) -> int:
        """The highest version number ``tenant`` has used, in any state
        (0 for none) — what a service resumes its numbering after,
        whichever version it *serves*."""
        with self._catalog() as conn:
            row = conn.execute(
                "SELECT MAX(version) FROM versions WHERE tenant = ?", (tenant,)
            ).fetchone()
        return row[0] or 0

    # -- persist --------------------------------------------------------

    def persist(self, snapshot: Snapshot, tenant: str = DEFAULT_TENANT) -> int:
        """Write ``snapshot`` as a durable version of ``tenant``.

        Versions of a tenant are append-only: the
        model tables record what changed *since the newest version*, so
        a number below it is refused.  What was written is left in
        :attr:`last_persist`.
        """
        validate_tenant(tenant)
        with self._catalog() as conn:
            return self._persist(conn, snapshot, tenant)

    def _persist(
        self, conn: sqlite3.Connection, snapshot: Snapshot, tenant: str
    ) -> int:
        started = time.perf_counter()
        buffers, classes = snapshot.row_columns()

        graph = snapshot.graph
        meta = pickle.dumps(
            {
                "config": snapshot.config,
                "family_classes": classes,
                "created_at": snapshot.created_at,
                "warm": snapshot.warm,
                "incremental": snapshot.incremental,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

        version = snapshot.version
        vdir = self.version_dir(version, tenant)
        claimed = False
        try:
            # 1. claim: a staging row, committed on its own so concurrent
            #    persists of the same version fail before any file I/O.
            conn.execute("BEGIN IMMEDIATE")
            existing = conn.execute(
                "SELECT state FROM versions WHERE tenant = ? AND version = ?",
                (tenant, version),
            ).fetchone()
            if existing is not None:
                conn.rollback()
                raise StoreError(
                    f"version {version} already persisted (state={existing[0]})"
                )
            self._newest_snapshot(conn, tenant, version)  # refuses a non-append
            parent = conn.execute(
                "SELECT MAX(version) FROM versions"
                " WHERE state = 'published' AND tenant = ?",
                (tenant,),
            ).fetchone()[0]
            conn.execute(
                "INSERT INTO versions (tenant, version, state, parent,"
                " generation, created_at, built_s, nodes, edges, graph_class,"
                " next_edge_id, meta)"
                " VALUES (?, ?, 'staging', ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    tenant,
                    version,
                    parent,
                    graph.generation,
                    time.time(),
                    snapshot.built_s,
                    graph.node_count,
                    graph.edge_count,
                    type(graph).__name__,
                    graph._next_edge_id,
                    meta,
                ),
            )
            conn.commit()
            claimed = True
            inherited = dict(
                conn.execute(
                    "SELECT name, origin FROM columns WHERE tenant = ? AND version = ?",
                    (tenant, parent),
                )
            )

            # 2. write: a column whose bytes equal the file the parent's
            #    manifest names is shared, the others get a file here.
            self._maybe_crash("before_files")
            manifest: list[tuple[str, int, str, str, int, int, int, int]] = []
            for i, name in enumerate(SNAPSHOT_COLUMNS):
                array = buffers[name]  # in the encoder's width, written as it is
                origin = inherited.get(name)
                if origin is not None and column_equals(
                    self.version_dir(origin, tenant) / f"{name}.npy", array
                ):
                    crc = zlib.crc32(array.tobytes())
                else:
                    origin = version
                    vdir.mkdir(parents=True, exist_ok=True)
                    crc = write_column(vdir / f"{name}.npy", array)
                manifest.append(
                    (
                        tenant,
                        version,
                        name,
                        array.dtype.str,
                        array.shape[0],
                        array.nbytes,
                        crc,
                        origin,
                    )
                )
                if i == 0:
                    self._maybe_crash("mid_files")
            self._maybe_crash("after_files")
            own = [row for row in manifest if row[7] == version]
            if own:
                fsync_dir(vdir)
                fsync_dir(vdir.parent)
                fsync_dir(self.versions_root)

            # 3. manifest + model delta + the atomic flip, one transaction.
            conn.execute("BEGIN IMMEDIATE")
            conn.executemany(
                "INSERT INTO columns (tenant, version, name, dtype, length, nbytes,"
                " crc32, origin) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                manifest,
            )
            baseline, rows_inserted, rows_closed = write_delta(
                conn, tenant, version, graph, self._baseline(conn, tenant, version)
            )
            self._maybe_crash("before_publish")
            conn.execute(
                "UPDATE versions SET state = 'published', published_at = ?"
                " WHERE tenant = ? AND version = ?",
                (time.time(), tenant, version),
            )
            conn.commit()
        except BaseException as exc:
            # the connection outlives this persist: end its transaction,
            # as a kill would have
            with contextlib.suppress(sqlite3.Error):
                if conn.in_transaction:
                    conn.rollback()
            if claimed and not isinstance(exc, InjectedCrash):
                # the process lives on: free the version number and the
                # disk now rather than at the next open() (an injected
                # crash leaves exactly what a kill would leave)
                with contextlib.suppress(sqlite3.Error, OSError):
                    cat.purge_unpublished(conn, tenant, version)
                    conn.commit()
                    self._sweep(conn)
            raise
        self._baselines[tenant] = baseline
        self.last_persist = {
            "tenant": tenant,
            "version": version,
            "rows_inserted": rows_inserted,
            "rows_closed": rows_closed,
            "columns_written": len(own),
            "columns_shared": len(manifest) - len(own),
            "column_bytes": sum(row[5] for row in own),
            "seconds": round(time.perf_counter() - started, 6),
        }
        return version

    def _baseline(self, conn: sqlite3.Connection, tenant: str, version: int) -> Baseline:
        """The model ``version`` of ``tenant`` must be diffed against.

        Called inside the flip transaction (the write lock is held, so
        the answer cannot go stale before the delta commits).  The
        remembered baseline is used only if it is of the catalog's
        newest version — published or demoted to ``corrupt``,
        either way its model rows are the live ones; otherwise the model
        is read back from the catalog.
        """
        newest = self._newest_snapshot(conn, tenant, version)
        if newest is None:
            return Baseline()
        remembered = self._baselines.get(tenant)
        if remembered is not None and remembered.version == newest:
            return remembered
        return Baseline.of(newest, *read_model(conn, tenant, newest))

    @staticmethod
    def _newest_snapshot(
        conn: sqlite3.Connection, tenant: str, version: int
    ) -> int | None:
        """The newest version of ``tenant`` whose model rows are in the
        catalog; refuses a ``version`` that would not append."""
        newest = conn.execute(
            "SELECT MAX(version) FROM versions WHERE tenant = ?"
            " AND state != 'staging'",
            (tenant,),
        ).fetchone()[0]
        if newest is not None and newest > version:
            raise StoreError(
                f"version {version} is older than the newest persisted"
                f" version {newest} of tenant {tenant}"
            )
        return newest

    # -- attach ---------------------------------------------------------

    def attach(
        self,
        version: int | None = None,
        verify: bool = True,
        tenant: str = DEFAULT_TENANT,
    ) -> StoredSnapshot:
        """Rehydrate a published version as a serving snapshot.

        ``version=None`` attaches the tenant's newest published version.
        With ``verify`` every column file's data CRC-32 is checked
        against the catalog manifest before it is mapped.  The graph and
        the decoded rows are rebuilt in Python, so attach time grows with
        nodes + edges.
        """
        if version is None:
            version = self.latest_version(tenant)
            if version is None:
                raise StoreError(
                    f"store has no published snapshot versions for tenant {tenant}"
                )
        with self._catalog() as conn:
            row = conn.execute(
                "SELECT state, graph_class, next_edge_id, meta, built_s"
                " FROM versions WHERE tenant = ? AND version = ?",
                (tenant, version),
            ).fetchone()
            if row is None:
                published = (
                    ", ".join(map(str, self.published_versions(tenant)))
                    or "none"
                )
                raise StoreError(
                    f"version {version} not found in store (published: {published})"
                )
            state, graph_class, next_edge_id, blob, built_s = row
            if state != "published":
                raise StoreError(f"version {version} is not published (state={state})")
            cls = GRAPH_CLASSES.get(graph_class)
            if cls is None:
                raise StoreError(
                    f"version {version} uses unknown graph class {graph_class}"
                )
            meta = pickle.loads(blob)
            views = self._load_columns(
                conn, tenant, version, SNAPSHOT_COLUMNS, verify=verify
            )
            graph, *seqs = read_model(conn, tenant, version, cls)
            graph._next_edge_id = next_edge_id

        remembered = self._baselines.get(tenant)
        if remembered is None or remembered.version < version:
            self._baselines[tenant] = Baseline.of(version, graph, *seqs)
        snapshot = StoredSnapshot.from_columns(version, graph, views, meta, built_s)
        snapshot.store_path = self.root
        snapshot.store_version = version
        snapshot.store_tenant = tenant
        return snapshot

    def attach_latest(
        self, verify: bool = True, tenant: str = DEFAULT_TENANT
    ) -> StoredSnapshot:
        """Attach the newest version that survives verification.

        A candidate that fails (truncated file, checksum mismatch, bad
        metadata) is demoted to ``corrupt`` in the catalog and the next
        older published version is tried — the self-heal path after a
        torn write that somehow made it past publish.
        """
        candidates = self.published_versions(tenant)
        last_error: StoreError | None = None
        for version in reversed(candidates):
            try:
                return self.attach(version, verify=verify, tenant=tenant)
            except StoreError as exc:
                last_error = exc
                with self._catalog() as conn:
                    conn.execute(
                        "UPDATE versions SET state = 'corrupt'"
                        " WHERE tenant = ? AND version = ?",
                        (tenant, version),
                    )
                    conn.commit()
        if last_error is not None:
            raise StoreError(
                f"no attachable version (all candidates corrupt; last: {last_error})"
            )
        raise StoreError(
            f"store has no published snapshot versions for tenant {tenant}"
        )

    def _load_columns(
        self,
        conn: sqlite3.Connection,
        tenant: str,
        version: int,
        expected: tuple[str, ...],
        verify: bool,
    ) -> dict[str, np.ndarray]:
        manifest = {
            name: (dtype, length, crc, origin)
            for name, dtype, length, crc, origin in conn.execute(
                "SELECT name, dtype, length, crc32, origin FROM columns"
                " WHERE tenant = ? AND version = ?",
                (tenant, version),
            )
        }
        missing = set(expected) - set(manifest)
        if missing:
            raise StoreError(
                f"version {version} manifest is incomplete (missing {sorted(missing)})"
            )
        views: dict[str, np.ndarray] = {}
        for name, (dtype_str, length, crc, origin) in manifest.items():
            path = self.version_dir(origin, tenant) / f"{name}.npy"
            if not path.is_file():
                raise StoreError(f"version {version} column file missing: {path.name}")
            if verify:
                try:
                    actual = data_crc32(path)
                except (OSError, ValueError) as exc:
                    raise StoreError(
                        f"version {version} column {name} unreadable: {exc}"
                    ) from exc
                if actual != crc:
                    raise StoreError(
                        f"checksum mismatch in version {version} column {name}"
                    )
            try:
                if length == 0:
                    view = np.empty(0, dtype=np.dtype(dtype_str))
                else:
                    view = np.load(path, mmap_mode="r")
            except (OSError, ValueError) as exc:
                raise StoreError(
                    f"version {version} column {name} unreadable: {exc}"
                ) from exc
            if view.dtype.str != dtype_str or view.shape != (length,):
                raise StoreError(
                    f"version {version} column {name} does not match its manifest"
                    f" (file {view.dtype.str}{view.shape},"
                    f" manifest {dtype_str}({length},))"
                )
            view.flags.writeable = False
            views[name] = view
        return views

    # -- garbage collection ---------------------------------------------

    def gc(self, keep: int, tenant: str | None = None) -> list[dict[str, Any]]:
        """Prune old versions beyond the newest ``keep`` published ones.

        Per tenant the newest ``keep`` published versions survive and
        every older published or ``corrupt`` version is deleted from the
        catalog, along with the model rows no kept version can see and
        the column files no kept version reads (:meth:`_sweep`).  Staging
        rows and the latest published version of a tenant are never
        pruned (``keep`` must be at least 1).  Restrict with ``tenant``;
        returns one dict per pruned version.
        """
        if keep < 1:
            raise StoreError(
                "gc keep must be >= 1 (the latest published version always stays)"
            )
        query = "SELECT tenant, version, state FROM versions WHERE state != 'staging'"
        params: tuple[Any, ...] = ()
        if tenant is not None:
            query += " AND tenant = ?"
            params = (tenant,)
        query += " ORDER BY tenant, version"
        doomed: list[tuple[str, int]] = []
        # under the store lock: a persist between claim and flip is
        # about to name files of its parent that no row of its own names yet
        with self._catalog() as conn:
            histories: dict[str, list[tuple[int, str]]] = {}
            for row_tenant, row_version, state in conn.execute(query, params):
                histories.setdefault(row_tenant, []).append((row_version, state))
            conn.execute("BEGIN IMMEDIATE")
            for row_tenant, history in histories.items():
                published = [v for v, state in history if state == "published"]
                if not published:
                    continue
                oldest_kept = published[-keep:][0]
                dropped = [v for v, _state in history if v < oldest_kept]
                if not dropped:
                    continue
                # model rows that died at or before the oldest kept
                # version are visible to no kept version
                for table in cat.MODEL_TABLES:
                    conn.execute(
                        f"DELETE FROM {table} WHERE tenant = ? AND died <= ?",
                        (row_tenant, oldest_kept),
                    )
                for row_version in dropped:
                    doomed.append((row_tenant, row_version))
                    for table in ("columns", "versions"):
                        conn.execute(
                            f"DELETE FROM {table} WHERE tenant = ? AND version = ?",
                            (row_tenant, row_version),
                        )
            conn.commit()
            # File removal happens after the catalog commit: a crash in
            # between leaves unnamed files, which open() sweeps.
            self._sweep(conn)
        return [
            {"tenant": row_tenant, "version": row_version}
            for row_tenant, row_version in doomed
        ]
