"""Out-of-core graph construction: stream node/edge chunks into a store.

:class:`StreamingGraphWriter` duck-types the :class:`CompanyGraph`
construction surface (``add_person`` / ``add_company`` /
``add_shareholding`` / ``add_node`` / ``add_edge``) but never holds the
graph: node rows and properties flush to the store catalog in chunks,
edge endpoints stream to temporary position-indexed npy columns, and
memory stays bounded by the chunk size plus a capped id-position cache —
so ``generate_company_graph_into(writer, spec)`` emits 10M+-node graphs
that at no point reside in RAM.

:meth:`StreamingGraphWriter.finalize` turns the staged stream into a
published ``kind='graph'`` version whose columns use the **same names,
dtypes, and construction order as the in-memory**
:class:`~repro.graph.columnar.GraphFrame` — a frame built from the same
insertion sequence produces byte-identical ``edge_src`` / ``edge_dst`` /
CSR / CSC buffers (the parity tests assert it):

The catalog rows of a bare graph live in the same interval tables as a
snapshot stream's (:mod:`repro.storage.catalog`), marked ``bare = 1``:
written once, ``born = v`` / ``died = v + 1``, ``seq`` = insertion
position.

1. intern codes are assigned by sorting node ids **in SQLite** (the
   UTF-8 BLOB order of the intern table equals Python ``str`` order,
   which for all-string ids equals ``intern_sort_key`` order — hence the
   string-id requirement);
2. the temporary position-based edge columns are remapped chunkwise to
   intern codes through an on-disk position→code table;
3. CSR/CSC adjacency is built in two chunked passes over memory-mapped
   columns — a counting pass (``np.add.at`` into an indptr memmap,
   chunked cumsum) and a stable scatter pass that reproduces
   ``GraphFrame._build_adjacency_index``'s insertion-order-per-row
   semantics exactly (stable in-chunk argsort + per-row write cursors).

:class:`OutOfCoreGraph` then answers point queries (successors,
predecessors, direct share, node lookup) against the published columns
via mmap slices and catalog lookups, without loading the graph.
"""

from __future__ import annotations

import shutil
import time
from typing import Any, Iterator

import numpy as np

from ..graph.company_graph import COMPANY, PERSON, SHAREHOLDING
from ..graph.property_graph import GraphError
from . import catalog as cat
from ..service.snapshot import DEFAULT_TENANT
from .npyio import NpyColumnWriter, data_crc32, fsync_dir, read_header
from .store import FrameStore, StoreError

#: Columns a streamed ``kind='graph'`` version publishes.
GRAPH_COLUMNS: dict[str, np.dtype] = {
    "edge_src": np.dtype(np.int64),
    "edge_dst": np.dtype(np.int64),
    "edge_w": np.dtype(np.float64),
    "edge_label": np.dtype(np.int64),
    "csr_indptr": np.dtype(np.int64),
    "csr_targets": np.dtype(np.int64),
    "csr_positions": np.dtype(np.int64),
    "csc_indptr": np.dtype(np.int64),
    "csc_sources": np.dtype(np.int64),
    "csc_positions": np.dtype(np.int64),
}


#: FROM/WHERE of "the bare node row of (tenant, version) with string id
#: ?" — a primary-key lookup once ``vals`` has resolved the id.
_NODE_BY_ID = (
    "FROM nodes n JOIN vals v ON v.id = n.id_ref"
    " WHERE n.tenant = ? AND n.bare = 1 AND n.born = ?"
    " AND v.kind = 's' AND v.value = ?"
)


class StreamingGraphWriter:
    """Build one ``kind='graph'`` store version without holding the graph.

    The writer claims a staging version on construction; nothing is
    visible to readers until :meth:`finalize` flips it to published, and
    a crash before that leaves only a staging carcass that
    :meth:`FrameStore.open` purges.  Node ids must be strings (the
    intern order guarantee above depends on it).
    """

    def __init__(
        self,
        store: FrameStore,
        version: int | None = None,
        chunk_rows: int = 1 << 16,
        pos_cache_limit: int = 1 << 20,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self.store = store
        self.tenant = tenant
        self.chunk_rows = chunk_rows
        self.pos_cache_limit = pos_cache_limit
        self._conn = store._connect()
        self._interner = cat.ValueInterner(self._conn)
        self._finalized = False
        self._node_count = 0
        self._edge_count = 0
        self._next_edge_id = 0
        self._pos_cache: dict[str, int] = {}
        self._pending_nodes: list[tuple] = []
        self._pending_node_props: list[tuple] = []
        self._pending_edges: list[tuple] = []
        self._pending_edge_props: list[tuple] = []
        self._edge_chunk: list[tuple[int, int, float, int]] = []  # src, dst, w, label

        self._conn.execute("BEGIN IMMEDIATE")
        if version is None:
            row = self._conn.execute(
                "SELECT MAX(version) FROM versions WHERE tenant = ?", (tenant,)
            ).fetchone()
            version = (row[0] or 0) + 1
        elif self._conn.execute(
            "SELECT 1 FROM versions WHERE tenant = ? AND version = ?",
            (tenant, version),
        ).fetchone():
            self._conn.rollback()
            raise StoreError(f"version {version} already persisted")
        self.version = version
        #: leading columns of every model row: bare, alive at exactly
        #: this version
        self._lifetime = (tenant, version, version + 1)
        self._conn.execute(
            "INSERT INTO versions (tenant, version, state, kind, created_at,"
            " graph_class) VALUES (?, ?, 'staging', 'graph', ?, 'CompanyGraph')",
            (tenant, version, time.time()),
        )
        self._conn.commit()
        # one transaction stays open across the whole add phase: every
        # intern INSERT would otherwise autocommit (and fsync) on its
        # own; chunk flushes commit it and immediately reopen it
        self._conn.execute("BEGIN")
        self._vdir = store.version_dir(version, tenant)
        self._vdir.mkdir(parents=True, exist_ok=True)
        self._tmp_src = NpyColumnWriter(self._vdir / "_tmp_src_pos.npy", np.int64)
        self._tmp_dst = NpyColumnWriter(self._vdir / "_tmp_dst_pos.npy", np.int64)
        self._w_writer = NpyColumnWriter(self._vdir / "edge_w.npy", np.float64)
        self._label_writer = NpyColumnWriter(self._vdir / "edge_label.npy", np.int64)

    # -- CompanyGraph construction surface ------------------------------

    def add_person(self, person_id: str, **properties: Any) -> None:
        self.add_node(person_id, PERSON, **properties)

    def add_company(self, company_id: str, **properties: Any) -> None:
        self.add_node(company_id, COMPANY, **properties)

    def add_shareholding(
        self,
        owner: str,
        company: str,
        share: float,
        edge_id: Any = None,
        **properties: Any,
    ) -> None:
        if not 0 < share <= 1:
            raise GraphError(f"share amount must be in (0, 1], got {share}")
        self.add_edge(
            owner, company, SHAREHOLDING, edge_id=edge_id, w=share, **properties
        )

    def add_node(self, node_id: str, label: str | None = None, **properties: Any) -> None:
        if not isinstance(node_id, str):
            raise StoreError(
                f"streaming writer requires string node ids, got {type(node_id).__name__}"
            )
        if self._pos_of(node_id, missing_ok=True) is not None:
            raise GraphError(f"node {node_id!r} already exists")
        pos = self._node_count
        self._node_count += 1
        label_ref = None if label is None else self._interner.ref(label)
        self._pending_nodes.append(
            (*self._lifetime, self._interner.ref(node_id), pos, label_ref)
        )
        for ordinal, (name, value) in enumerate(properties.items()):
            self._pending_node_props.append(
                (
                    *self._lifetime,
                    pos,
                    ordinal,
                    self._interner.ref(name),
                    self._interner.ref(value),
                )
            )
        self._cache_pos(node_id, pos)
        if len(self._pending_nodes) >= self.chunk_rows:
            self._flush_nodes()

    def add_edge(
        self,
        source: str,
        target: str,
        label: str | None = None,
        edge_id: Any = None,
        **properties: Any,
    ) -> None:
        src_pos = self._pos_of(source)
        dst_pos = self._pos_of(target)
        if edge_id is None:
            edge_id = f"e{self._next_edge_id}"
            self._next_edge_id += 1
        pos = self._edge_count
        self._edge_count += 1
        label_ref = None if label is None else self._interner.ref(label)
        self._pending_edges.append(
            (
                *self._lifetime,
                self._interner.ref(edge_id),
                pos,
                src_pos,
                dst_pos,
                label_ref,
            )
        )
        for ordinal, (name, value) in enumerate(properties.items()):
            self._pending_edge_props.append(
                (
                    *self._lifetime,
                    pos,
                    ordinal,
                    self._interner.ref(name),
                    self._interner.ref(value),
                )
            )
        self._edge_chunk.append(
            (
                src_pos,
                dst_pos,
                float(properties.get("w", np.nan)),
                -1 if label_ref is None else label_ref,
            )
        )
        if len(self._edge_chunk) >= self.chunk_rows:
            self._flush_edges()

    # -- internals ------------------------------------------------------

    def _cache_pos(self, node_id: str, pos: int) -> None:
        if len(self._pos_cache) >= self.pos_cache_limit:
            # flush first so evicted entries remain resolvable via SQL
            self._flush_nodes()
            self._pos_cache.clear()
        self._pos_cache[node_id] = pos

    def _pos_of(self, node_id: str, missing_ok: bool = False) -> int | None:
        pos = self._pos_cache.get(node_id)
        if pos is not None:
            return pos
        row = self._conn.execute(
            f"SELECT n.seq {_NODE_BY_ID}",
            (self.tenant, self.version, node_id.encode("utf-8")),
        ).fetchone()
        if row is None:
            if missing_ok:
                return None
            raise GraphError(f"node {node_id!r} does not exist")
        self._cache_pos(node_id, row[0])
        return row[0]

    def _flush_nodes(self) -> None:
        if not self._pending_nodes and not self._pending_node_props:
            return
        self._conn.executemany(
            "INSERT INTO nodes (tenant, bare, born, died, id_ref, seq, label_ref)"
            " VALUES (?, 1, ?, ?, ?, ?, ?)",
            self._pending_nodes,
        )
        self._conn.executemany(
            "INSERT INTO node_props (tenant, bare, born, died, owner, ordinal,"
            " name_ref, value_ref) VALUES (?, 1, ?, ?, ?, ?, ?, ?)",
            self._pending_node_props,
        )
        self._conn.commit()
        self._conn.execute("BEGIN")
        self._pending_nodes.clear()
        self._pending_node_props.clear()

    def _flush_edges(self) -> None:
        if self._pending_edges:
            self._conn.executemany(
                "INSERT INTO edges (tenant, bare, born, died, edge_id_ref, seq,"
                " src_seq, dst_seq, label_ref) VALUES (?, 1, ?, ?, ?, ?, ?, ?, ?)",
                self._pending_edges,
            )
            self._conn.executemany(
                "INSERT INTO edge_props (tenant, bare, born, died, owner, ordinal,"
                " name_ref, value_ref) VALUES (?, 1, ?, ?, ?, ?, ?, ?)",
                self._pending_edge_props,
            )
            self._conn.commit()
            self._conn.execute("BEGIN")
            self._pending_edges.clear()
            self._pending_edge_props.clear()
        if self._edge_chunk:
            chunk = np.asarray(self._edge_chunk, dtype=np.float64)
            self._tmp_src.append(chunk[:, 0].astype(np.int64))
            self._tmp_dst.append(chunk[:, 1].astype(np.int64))
            self._w_writer.append(chunk[:, 2])
            self._label_writer.append(chunk[:, 3].astype(np.int64))
            self._edge_chunk.clear()

    # -- finalize -------------------------------------------------------

    def finalize(self) -> int:
        """Intern, remap, index, and publish; returns the version."""
        if self._finalized:
            raise StoreError("writer already finalized")
        self._finalized = True
        self._flush_nodes()
        self._flush_edges()
        self._conn.commit()  # close the standing add-phase transaction
        for writer in (self._tmp_src, self._tmp_dst, self._w_writer, self._label_writer):
            writer.close()

        n, m = self._node_count, self._edge_count
        conn, vdir, version = self._conn, self._vdir, self.version
        chunk = self.chunk_rows

        # 1. intern codes: sorted id order, assigned via a disk-backed
        #    SQLite sort; code_of_pos maps insertion position -> code and
        #    ref_of_pos -> the node's id ref (its row key).  Two passes —
        #    the scan must finish before the table is updated
        #    (same-connection write-under-read is undefined).
        code_of_pos = np.lib.format.open_memmap(
            vdir / "_tmp_code_of_pos.npy", mode="w+", dtype=np.int64, shape=(n,)
        )
        ref_of_pos = np.lib.format.open_memmap(
            vdir / "_tmp_ref_of_pos.npy", mode="w+", dtype=np.int64, shape=(n,)
        )
        cursor = conn.execute(
            "SELECT n.seq, n.id_ref FROM nodes n JOIN vals v ON v.id = n.id_ref"
            " WHERE n.tenant = ? AND n.bare = 1 AND n.born = ? ORDER BY v.value",
            (self.tenant, version),
        )
        code = 0
        while True:
            rows = cursor.fetchmany(chunk)
            if not rows:
                break
            for pos, id_ref in rows:
                code_of_pos[pos] = code
                ref_of_pos[pos] = id_ref
                code += 1
        code_of_pos.flush()
        for start in range(0, n, chunk):
            codes = np.asarray(code_of_pos[start : start + chunk]).tolist()
            refs = np.asarray(ref_of_pos[start : start + chunk]).tolist()
            conn.execute("BEGIN")
            conn.executemany(
                "UPDATE nodes SET intern = ?"
                " WHERE tenant = ? AND bare = 1 AND id_ref = ? AND born = ?",
                ((c, self.tenant, r, version) for c, r in zip(codes, refs)),
            )
            conn.commit()
        del ref_of_pos

        # 2. remap the temporary position-based edge endpoints to codes.
        for tmp_name, out_name in (
            ("_tmp_src_pos.npy", "edge_src.npy"),
            ("_tmp_dst_pos.npy", "edge_dst.npy"),
        ):
            tmp = np.load(vdir / tmp_name, mmap_mode="r")
            writer = NpyColumnWriter(vdir / out_name, np.int64)
            for start in range(0, m, chunk):
                writer.append(code_of_pos[np.asarray(tmp[start : start + chunk])])
            writer.close()
            del tmp

        # 3. CSR over edge_src, CSC over edge_dst — chunked two-pass.
        edge_src = np.load(vdir / "edge_src.npy", mmap_mode="r")
        edge_dst = np.load(vdir / "edge_dst.npy", mmap_mode="r")
        self._build_adjacency(edge_src, edge_dst, n, "csr_indptr", "csr_targets", "csr_positions")
        self._build_adjacency(edge_dst, edge_src, n, "csc_indptr", "csc_sources", "csc_positions")
        del edge_src, edge_dst

        for tmp in vdir.glob("_tmp_*.npy"):
            tmp.unlink()
        fsync_dir(vdir)
        fsync_dir(vdir.parent)
        fsync_dir(self.store.versions_root)

        # 4. manifest + publish flip.
        manifest = []
        for name, dtype in GRAPH_COLUMNS.items():
            path = vdir / f"{name}.npy"
            file_dtype, length = read_header(path)
            if file_dtype != dtype:
                raise StoreError(f"column {name} built with dtype {file_dtype}")
            manifest.append(
                (
                    self.tenant,
                    version,
                    name,
                    file_dtype.str,
                    length,
                    length * file_dtype.itemsize,
                    data_crc32(path),
                    version,  # a streamed version owns every file it names
                )
            )
        conn.execute("BEGIN IMMEDIATE")
        conn.executemany(
            "INSERT INTO columns (tenant, version, name, dtype, length, nbytes,"
            " crc32, origin) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            manifest,
        )
        conn.execute(
            "UPDATE versions SET state = 'published', published_at = ?, nodes = ?,"
            " edges = ?, next_edge_id = ? WHERE tenant = ? AND version = ?",
            (time.time(), n, m, self._next_edge_id, self.tenant, version),
        )
        conn.commit()
        conn.close()
        return version

    def _build_adjacency(
        self, major: np.ndarray, minor: np.ndarray, n: int,
        indptr_name: str, minor_name: str, pos_name: str,
    ) -> None:
        """Chunked equivalent of ``GraphFrame._build_adjacency_index``.

        Pass 1 counts into an ``(n+1,)`` indptr memmap; pass 2 scatters
        each chunk through per-row write cursors, using a stable in-chunk
        argsort so within-row order stays edge-insertion order — chunk k
        rows always precede chunk k+1 rows, matching the stable argsort
        over the full array.
        """
        m = major.shape[0]
        chunk = self.chunk_rows
        vdir = self._vdir
        indptr = np.lib.format.open_memmap(
            vdir / f"{indptr_name}.npy", mode="w+", dtype=np.int64, shape=(n + 1,)
        )
        indptr[:] = 0
        for start in range(0, m, chunk):
            np.add.at(indptr, np.asarray(major[start : start + chunk]) + 1, 1)
        running = 0
        for start in range(0, n + 1, chunk):
            block = np.cumsum(np.asarray(indptr[start : start + chunk])) + running
            indptr[start : start + chunk] = block
            running = int(block[-1]) if block.size else running
        indptr.flush()

        write_cursor = np.lib.format.open_memmap(
            vdir / "_tmp_cursor.npy", mode="w+", dtype=np.int64, shape=(n,)
        )
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            write_cursor[start:stop] = indptr[start:stop]
        out_minor = np.lib.format.open_memmap(
            vdir / f"{minor_name}.npy", mode="w+", dtype=np.int64, shape=(m,)
        )
        out_pos = np.lib.format.open_memmap(
            vdir / f"{pos_name}.npy", mode="w+", dtype=np.int64, shape=(m,)
        )
        for start in range(0, m, chunk):
            maj = np.asarray(major[start : start + chunk])
            mino = np.asarray(minor[start : start + chunk])
            order = np.argsort(maj, kind="stable")
            smaj = maj[order]
            # rank of each entry within its run of equal rows
            starts = np.flatnonzero(np.r_[True, smaj[1:] != smaj[:-1]])
            run_lengths = np.diff(np.r_[starts, smaj.shape[0]])
            ranks = np.arange(smaj.shape[0]) - np.repeat(starts, run_lengths)
            dest = write_cursor[smaj] + ranks
            out_minor[dest] = mino[order]
            out_pos[dest] = start + order
            uniq = smaj[starts]
            write_cursor[uniq] += run_lengths
        out_minor.flush()
        out_pos.flush()
        del indptr, write_cursor, out_minor, out_pos
        (vdir / "_tmp_cursor.npy").unlink()

    def abort(self) -> None:
        """Drop the staging claim (used on generator failure)."""
        if self._finalized:
            return
        self._finalized = True
        self._conn.rollback()  # discard the open add-phase transaction
        for writer in (self._tmp_src, self._tmp_dst, self._w_writer, self._label_writer):
            writer.abort()
        cat.purge_unpublished(self._conn, self.tenant, self.version)
        self._conn.commit()
        self._conn.close()
        shutil.rmtree(self._vdir, ignore_errors=True)


class OutOfCoreGraph:
    """Point queries over a published ``kind='graph'`` version.

    Columns are memory-mapped read-only; node ids and properties resolve
    through the catalog.  Nothing scales with graph size except the
    kernel page cache.
    """

    def __init__(
        self,
        store: FrameStore,
        version: int | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self.store = store
        self.tenant = tenant
        if version is None:
            version = store.latest_version("graph", tenant=tenant)
            if version is None:
                raise StoreError("store has no published graph versions")
        self.version = version
        self._conn = store._connect()
        row = self._conn.execute(
            "SELECT state, kind, nodes, edges FROM versions"
            " WHERE tenant = ? AND version = ?",
            (tenant, version),
        ).fetchone()
        if row is None:
            raise StoreError(f"version {version} not found in store")
        state, kind, self.node_count, self.edge_count = row
        if state != "published" or kind != "graph":
            raise StoreError(
                f"version {version} is not a published graph (state={state}, kind={kind})"
            )
        self._loader = cat.ValueLoader(self._conn)
        vdir = store.version_dir(version, tenant)
        self._cols: dict[str, np.ndarray] = {}
        for name in GRAPH_COLUMNS:
            path = vdir / f"{name}.npy"
            if not path.is_file():
                raise StoreError(f"version {version} column file missing: {path.name}")
            arr = np.load(path, mmap_mode="r")
            arr.flags.writeable = False
            self._cols[name] = arr

    def close(self) -> None:
        self._conn.close()
        self._cols.clear()

    # -- id <-> code ----------------------------------------------------

    def code_of(self, node_id: str) -> int:
        row = self._conn.execute(
            f"SELECT n.intern {_NODE_BY_ID}",
            (self.tenant, self.version, node_id.encode("utf-8")),
        ).fetchone()
        if row is None:
            raise GraphError(f"node {node_id!r} does not exist")
        return row[0]

    def id_of(self, code: int) -> str:
        row = self._conn.execute(
            "SELECT v.value FROM nodes n JOIN vals v ON v.id = n.id_ref"
            " WHERE n.tenant = ? AND n.bare = 1 AND n.born = ? AND n.intern = ?",
            (self.tenant, self.version, code),
        ).fetchone()
        if row is None:
            raise GraphError(f"no node with intern code {code}")
        return row[0].decode("utf-8")

    def node(self, node_id: str) -> dict[str, Any]:
        """Label and properties of one node."""
        row = self._conn.execute(
            f"SELECT n.seq, n.label_ref {_NODE_BY_ID}",
            (self.tenant, self.version, node_id.encode("utf-8")),
        ).fetchone()
        if row is None:
            raise GraphError(f"node {node_id!r} does not exist")
        pos, label_ref = row
        props = {}
        for name_ref, value_ref in self._conn.execute(
            "SELECT name_ref, value_ref FROM node_props WHERE tenant = ?"
            " AND bare = 1 AND owner = ? AND born = ? ORDER BY ordinal",
            (self.tenant, pos, self.version),
        ):
            props[self._loader.get(name_ref)] = self._loader.get(value_ref)
        return {"id": node_id, "label": self._loader.get(label_ref), "properties": props}

    # -- traversal ------------------------------------------------------

    def _edges_at(
        self, code: int, indptr_name: str, minor_name: str, pos_name: str
    ) -> Iterator[tuple[str, str | None, float | None]]:
        indptr = self._cols[indptr_name]
        lo, hi = int(indptr[code]), int(indptr[code + 1])
        minors = self._cols[minor_name][lo:hi]
        positions = self._cols[pos_name][lo:hi]
        labels = self._cols["edge_label"]
        weights = self._cols["edge_w"]
        for other, pos in zip(minors.tolist(), positions.tolist()):
            label_ref = int(labels[pos])
            label = None if label_ref < 0 else self._loader.get(label_ref)
            weight = float(weights[pos])  # NaN marks "no w property"
            yield self.id_of(other), label, None if weight != weight else weight

    def successors(self, node_id: str) -> list[tuple[str, str | None, float | None]]:
        """``(target_id, label, w)`` per out-edge, insertion order."""
        return list(
            self._edges_at(self.code_of(node_id), "csr_indptr", "csr_targets", "csr_positions")
        )

    def predecessors(self, node_id: str) -> list[tuple[str, str | None, float | None]]:
        """``(source_id, label, w)`` per in-edge, insertion order."""
        return list(
            self._edges_at(self.code_of(node_id), "csc_indptr", "csc_sources", "csc_positions")
        )

    def share(self, owner: str, company: str) -> float:
        """Direct shareholding fraction, parallel edges summed."""
        total = 0.0
        for target, label, w in self.successors(owner):
            if target == company and label == SHAREHOLDING:
                total += w
        return total


def generate_company_graph_stream(spec, store: FrameStore, **writer_kwargs):
    """Stream a synthetic company graph straight into ``store``.

    RNG-identical to ``generate_company_graph`` with the same spec (both
    call ``generate_company_graph_into``); returns
    ``(version, ground_truth)``.
    """
    from ..datagen.company_generator import generate_company_graph_into

    writer = StreamingGraphWriter(store, **writer_kwargs)
    try:
        truth = generate_company_graph_into(writer, spec)
    except BaseException:
        writer.abort()
        raise
    return writer.finalize(), truth
