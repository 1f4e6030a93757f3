"""Shared-memory snapshot segments: one codec, N zero-copy readers.

The multi-process serving model (``repro.service.workers``) needs every
reader process to see the *same* snapshot without paying a per-process
copy of the columnar buffers.  This module is the codec: it lays a
complete :class:`~repro.service.snapshot.Snapshot` into **one** named
``multiprocessing.shared_memory`` segment —

* a fixed 64-byte **header** (magic, format version, snapshot version,
  TOC location, total size) so stale or foreign segments are rejected
  before anything is decoded;
* a JSON **TOC** describing every buffer (name, dtype, length, offset);
* the frame's numeric **buffers** (interned edge columns, CSR/CSC
  adjacency with edge positions, walker lockstep CSR, shareholding COO,
  ownership ``W`` in CSC form), 64-byte aligned, exactly as exported by
  :meth:`GraphFrame.buffers <repro.graph.columnar.GraphFrame.buffers>`;
* the snapshot's precomputed **row state** as code arrays — control
  pairs, close-link pairs, family links (with an interned class table),
  and the flattened UBO index;
* one pickled **object blob** for the irreducibly Python-object side:
  the base graph state (node/edge objects with property dicts) and the
  snapshot config/metadata.  The augmented graph is *not* in the blob:
  it is a pure function of the base graph and the row state
  (:func:`repro.service.snapshot.augment`), so each attacher recomputes
  it — the same call the builder and the durable store's attach make.

Attaching (:func:`attach_snapshot`) is the inverse: numeric buffers come
back as **zero-copy, read-only ``np.ndarray`` views** over the mapped
segment — N workers share one physical copy of the heavy arrays — while
the object side is rehydrated per process (Python objects cannot be
shared across interpreters without serialisation).  The attached
:class:`GraphFrame` is installed as the graph's cached frame, so
custom-threshold endpoint recomputations and ownership sweeps in the
worker resolve to the shared buffers instead of rebuilding private ones.

Lifecycle: the *creator* (the builder process) owns ``unlink``, and may
unlink while readers are attached — POSIX keeps the pages until the last
mapping goes.  An attachment is a read-only ``mmap`` that every view
references, so it lives exactly as long as the
:class:`AttachedSnapshot` and any view taken from it: a reader retires a
version by dropping it, with no ``close`` (see
``repro.service.workers``).
"""

from __future__ import annotations

import _posixshmem
import json
import mmap
import os
import pickle
import struct
import time
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from ..graph.columnar import _CACHE_ATTR, EXPORT_DTYPES, GraphFrame
from ..graph.property_graph import PropertyGraph
from .snapshot import DEFAULT_TENANT, Snapshot

#: Segment magic — "Repro KG Snapshot".
MAGIC = b"RKGS"
#: Bump on any incompatible layout change; attach rejects mismatches.
FORMAT_VERSION = 2
#: Every buffer starts on a 64-byte boundary (cache-line alignment).
ALIGNMENT = 64

_HEADER = struct.Struct("<4sHHQQQQ")  # magic, format, flags, version, toc_off, toc_len, total
HEADER_SIZE = ALIGNMENT


class SegmentError(RuntimeError):
    """A segment that is missing, foreign, truncated, or version-skewed."""


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


# Resource-tracker note: only the creator's ``SharedMemory`` registers
# the segment with the (per-process-tree) resource tracker, and its
# ``unlink`` unregisters it.  Attaching maps the segment with a plain
# ``mmap`` and registers nothing.  If the whole tree crashes before
# unlinking, the tracker reaps the segment at shutdown.


def _graph_state(graph: PropertyGraph) -> tuple[type, dict[str, Any]]:
    """``(class, __dict__)`` of ``graph`` minus the cached-frame attribute
    (frames hold an unpicklable SuperLU factorisation)."""
    state = {k: v for k, v in graph.__dict__.items() if k != _CACHE_ATTR}
    return type(graph), state


def _restore_graph(payload: tuple[type, dict[str, Any]]) -> PropertyGraph:
    cls, state = payload
    graph = object.__new__(cls)
    graph.__dict__.update(state)
    return graph


class AttachedSnapshot(Snapshot):
    """A snapshot whose frame buffers are views over a shared segment.

    Behaves exactly like a built :class:`Snapshot` (same payloads, same
    types — the per-row identity tests assert it).  ``shm`` is the
    read-only mapping every view references, so it unmaps with the last
    of them.
    """

    segment_name: str
    shm: mmap.mmap
    #: the tenant the segment was encoded for (``default`` pre-tenancy)
    tenant: str


def encode_snapshot(
    snapshot: Snapshot, name: str | None = None, tenant: str = DEFAULT_TENANT
) -> shared_memory.SharedMemory:
    """Lay ``snapshot`` into one named shared-memory segment.

    Returns the created :class:`SharedMemory`; the caller (the builder
    process) owns it and is responsible for ``unlink`` — readers already
    attached keep their mapping past it.  ``tenant`` is recorded in the TOC so a
    worker attaching a handed-off segment can bind it to the right
    registry entry without trusting the segment *name*.
    """
    frame = snapshot.frame
    if not frame.is_current(snapshot.graph):  # out-of-band mutation: re-pin
        frame = GraphFrame.of(snapshot.graph)
    buffers = dict(frame.buffers())
    row_buffers, classes = snapshot.row_columns(frame)
    buffers.update(row_buffers)

    blob = pickle.dumps(
        {
            "graph": _graph_state(snapshot.graph),
            "config": snapshot.config,
            "version": snapshot.version,
            "built_s": snapshot.built_s,
            "created_at": snapshot.created_at,
            "warm": snapshot.warm,
            "incremental": snapshot.incremental,
            "family_classes": classes,
            "weight_property": frame.weight_property,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )

    # -- layout: header | toc | aligned buffers | object blob ----------
    toc_buffers: dict[str, dict[str, Any]] = {}
    # TOC length depends only on entry metadata, so lay buffers out
    # first against a placeholder origin, then shift by the TOC size.
    entries = []
    cursor = 0
    for buf_name, array in buffers.items():
        cursor = _align(cursor)
        entries.append((buf_name, array, cursor))
        cursor += array.nbytes
    cursor = _align(cursor)
    blob_rel, cursor = cursor, cursor + len(blob)

    def toc_bytes(origin: int) -> bytes:
        for buf_name, array, rel in entries:
            toc_buffers[buf_name] = {
                "dtype": array.dtype.str,
                "length": int(array.shape[0]),
                "offset": origin + rel,
                "nbytes": int(array.nbytes),
            }
        payload = {
            "buffers": toc_buffers,
            "objects": {"offset": origin + blob_rel, "nbytes": len(blob)},
            "meta": {
                "snapshot_version": snapshot.version,
                "tenant": tenant,
                "nodes": frame.node_count,
                "edges": frame.edge_count,
                "created_at": time.time(),
            },
        }
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    # one sizing pass (offsets widen the JSON by at most a few bytes per
    # entry, so size with the final origin candidate until stable)
    origin = HEADER_SIZE
    for _ in range(8):
        encoded = toc_bytes(origin)
        next_origin = _align(HEADER_SIZE + len(encoded))
        if next_origin == origin:
            break
        origin = next_origin
    toc = toc_bytes(origin)
    total = origin + cursor

    shm = shared_memory.SharedMemory(create=True, size=total, name=name)
    try:
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, 0, snapshot.version, HEADER_SIZE, len(toc), total
        )
        shm.buf[: len(header)] = header
        shm.buf[HEADER_SIZE : HEADER_SIZE + len(toc)] = toc
        for buf_name, array, rel in entries:
            if array.nbytes == 0:
                continue
            view = np.frombuffer(
                shm.buf, dtype=array.dtype, count=array.shape[0], offset=origin + rel
            )
            view[:] = array
            del view  # drop the exported pointer so close() stays possible
        if blob:
            shm.buf[origin + blob_rel : origin + blob_rel + len(blob)] = blob
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return shm


def _validated_toc(mapping: mmap.mmap, name: str) -> dict[str, Any]:
    if len(mapping) < HEADER_SIZE:
        raise SegmentError(f"segment {name!r} is smaller than the header")
    magic, fmt, _flags, _version, toc_off, toc_len, total = _HEADER.unpack_from(
        mapping, 0
    )
    if magic != MAGIC:
        raise SegmentError(f"segment {name!r} carries no snapshot (bad magic)")
    if fmt != FORMAT_VERSION:
        raise SegmentError(
            f"segment {name!r} uses format {fmt}, this build reads {FORMAT_VERSION}"
        )
    if total > len(mapping) or toc_off + toc_len > len(mapping):
        raise SegmentError(f"segment {name!r} is truncated")
    return json.loads(mapping[toc_off : toc_off + toc_len].decode("utf-8"))


def attach_snapshot(name: str) -> AttachedSnapshot:
    """Attach segment ``name`` and rehydrate it as a serving snapshot.

    Numeric buffers are zero-copy read-only views over a read-only
    ``mmap`` of the segment; the graph object model is rebuilt per
    process from the pickled blob.  Every view references the mapping,
    so it is unmapped when the last of them goes — on a decode error as
    much as after the snapshot is retired.
    """
    try:
        fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0)
    except FileNotFoundError:
        raise SegmentError(f"no such segment: {name!r}") from None
    try:
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    toc = _validated_toc(mapping, name)
    views: dict[str, np.ndarray] = {}
    for buf_name, entry in toc["buffers"].items():
        view = np.frombuffer(
            mapping,
            dtype=np.dtype(entry["dtype"]),
            count=entry["length"],
            offset=entry["offset"],
        )
        view.flags.writeable = False
        views[buf_name] = view
    objects = toc["objects"]
    blob = pickle.loads(mapping[objects["offset"] : objects["offset"] + objects["nbytes"]])

    graph = _restore_graph(blob["graph"])
    snapshot = AttachedSnapshot.from_columns(
        blob["version"],
        graph,
        GraphFrame.attach(
            graph,
            {buf_name: views[buf_name] for buf_name in EXPORT_DTYPES},
            weight_property=blob["weight_property"],
        ),
        views,
        blob,
        blob["built_s"],
    )
    snapshot.segment_name = name
    snapshot.shm = mapping
    snapshot.tenant = toc.get("meta", {}).get("tenant", DEFAULT_TENANT)
    return snapshot
