"""Shared-memory snapshot segments: one header, one pickle.

The multi-process serving model (``repro.service.workers``) hands every
new snapshot version to its reader processes as **one** named POSIX
shared-memory segment (``/dev/shm/<name>``).  A segment carries exactly what
the durable store (:mod:`repro.storage.store`) carries — what reasoning
derived, nothing numpy can recompute:

* a fixed 64-byte **header** (magic, format version, snapshot version,
  payload length) so stale or foreign segments are rejected before
  anything is decoded;
* one **pickle** holding the snapshot's row-state columns
  (:func:`repro.storage.layout.encode_rows`: control pairs, close-link
  pairs, family links with their class table, the flattened UBO index),
  the base graph state (node/edge objects with property dicts) and the
  snapshot config/metadata.

The columnar frame is not in the segment: it is a pure function of the
base graph, so each attacher recomputes it (``GraphFrame.of``), as a
store attach does.  Attaching (:func:`attach_snapshot`) maps the segment
read-only, checks the header, unpickles the payload and unmaps again —
nothing decoded references the mapping — and ends in
:meth:`Snapshot.from_columns <repro.service.snapshot.Snapshot.from_columns>`,
the tail it shares with the store attach.

Lifecycle: the *creator* (the builder process) owns ``unlink``.  A reader
maps a segment only while attaching it, so an unlink never has to wait
for one.

Both sides go straight through ``_posixshmem`` and ``mmap``, not
``multiprocessing.shared_memory``: that module imports ``secrets`` (and
with it ``hmac`` and ``_hashlib``, which maps OpenSSL's libcrypto) only to
make up a random name, and every segment the pool creates is named.
"""

from __future__ import annotations

import _posixshmem
import mmap
import os
import pickle
import struct
from multiprocessing import resource_tracker
from typing import Any

from ..graph.columnar import _CACHE_ATTR
from ..graph.property_graph import PropertyGraph
from .snapshot import Snapshot

#: Segment magic — "Repro KG Snapshot".
MAGIC = b"RKGS"
#: Bump on any incompatible layout change; attach rejects mismatches.
FORMAT_VERSION = 3

_HEADER = struct.Struct("<4sH2xQQ")  # magic, format, version, payload length
HEADER_SIZE = 64


class SegmentError(RuntimeError):
    """A segment that is missing, foreign, truncated, or version-skewed."""


# Resource-tracker note: the creator registers the segment with
# multiprocessing's resource tracker — a helper process shared by the
# whole process tree, the same registration ``SharedMemory`` makes — and
# ``Segment.unlink`` unregisters it.  Attaching maps the segment with a
# plain ``mmap`` and registers nothing.  If the whole tree crashes before
# unlinking, the tracker sees its pipe close and unlinks the segment.


class Segment:
    """A shared-memory segment this process created and owns.

    ``name`` (without the leading ``/``), ``size``, ``buf`` (a writable
    memoryview, ``None`` once closed), ``close()`` and ``unlink()`` mean
    what they mean on :class:`multiprocessing.shared_memory.SharedMemory`.
    ``name=None`` picks a free ``psm_<8 hex>`` name, as that class does.
    """

    _RTYPE = "shared_memory"  # the tracker's cleanup table key

    def __init__(self, size: int, name: str | None = None):
        flags = os.O_CREAT | os.O_EXCL | os.O_RDWR
        while True:
            path = "/" + (name if name is not None else "psm_" + os.urandom(4).hex())
            try:
                fd = _posixshmem.shm_open(path, flags, mode=0o600)
                break
            except FileExistsError:
                if name is not None:
                    raise
        try:
            os.ftruncate(fd, size)
            self._mmap = mmap.mmap(fd, size)
        except BaseException:
            _posixshmem.shm_unlink(path)
            raise
        finally:
            os.close(fd)
        self._path = path
        self.name = path[1:]
        self.size = size
        self.buf: memoryview | None = memoryview(self._mmap)
        resource_tracker.register(path, self._RTYPE)

    def close(self) -> None:
        """Unmap the segment from this process (it stays in /dev/shm)."""
        if self.buf is not None:
            self.buf.release()
            self.buf = None
            self._mmap.close()

    def unlink(self) -> None:
        """Remove the segment's name; its pages go with the last mapping."""
        _posixshmem.shm_unlink(self._path)
        resource_tracker.unregister(self._path, self._RTYPE)


def _graph_state(graph: PropertyGraph) -> tuple[type, dict[str, Any]]:
    """``(class, __dict__)`` of ``graph`` minus the cached-frame attribute
    (the attacher recomputes the frame from the graph)."""
    state = {k: v for k, v in graph.__dict__.items() if k != _CACHE_ATTR}
    return type(graph), state


def _restore_graph(payload: tuple[type, dict[str, Any]]) -> PropertyGraph:
    cls, state = payload
    graph = object.__new__(cls)
    graph.__dict__.update(state)
    return graph


class AttachedSnapshot(Snapshot):
    """A snapshot decoded from a shared segment.

    Behaves exactly like a built :class:`Snapshot` (same payloads, same
    types — the per-row identity tests assert it).  ``shm`` is the
    read-only mapping it was decoded from, already closed.
    """

    segment_name: str
    shm: mmap.mmap


def encode_snapshot(snapshot: Snapshot, name: str | None = None) -> Segment:
    """Lay ``snapshot`` into one named shared-memory segment.

    Returns the created :class:`Segment`; the caller (the builder
    process) owns it and is responsible for ``unlink``.
    """
    rows, classes = snapshot.row_columns()
    payload = pickle.dumps(
        {
            "graph": _graph_state(snapshot.graph),
            "rows": rows,
            "config": snapshot.config,
            "version": snapshot.version,
            "built_s": snapshot.built_s,
            "created_at": snapshot.created_at,
            "warm": snapshot.warm,
            "incremental": snapshot.incremental,
            "family_classes": classes,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    shm = Segment(HEADER_SIZE + len(payload), name)
    try:
        _HEADER.pack_into(shm.buf, 0, MAGIC, FORMAT_VERSION, snapshot.version, len(payload))
        shm.buf[HEADER_SIZE : HEADER_SIZE + len(payload)] = payload
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return shm


def _payload(mapping: mmap.mmap, name: str) -> dict[str, Any]:
    if len(mapping) < HEADER_SIZE:
        raise SegmentError(f"segment {name!r} is smaller than the header")
    magic, fmt, _version, length = _HEADER.unpack_from(mapping, 0)
    if magic != MAGIC:
        raise SegmentError(f"segment {name!r} carries no snapshot (bad magic)")
    if fmt != FORMAT_VERSION:
        raise SegmentError(
            f"segment {name!r} uses format {fmt}, this build reads {FORMAT_VERSION}"
        )
    if HEADER_SIZE + length > len(mapping):
        raise SegmentError(f"segment {name!r} is truncated")
    return pickle.loads(mapping[HEADER_SIZE : HEADER_SIZE + length])


def attach_snapshot(name: str) -> AttachedSnapshot:
    """Attach segment ``name`` and rehydrate it as a serving snapshot.

    The segment is mapped read-only just long enough to check its header
    and unpickle its payload; the frame is recomputed from the decoded
    graph.  The returned snapshot holds no mapping.
    """
    try:
        fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0)
    except FileNotFoundError:
        raise SegmentError(f"no such segment: {name!r}") from None
    try:
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    with mapping:
        payload = _payload(mapping, name)
    snapshot = AttachedSnapshot.from_columns(
        payload["version"],
        _restore_graph(payload["graph"]),
        payload["rows"],
        payload,
        payload["built_s"],
    )
    snapshot.segment_name = name
    snapshot.shm = mapping
    return snapshot
