"""Durable columnar storage for graphs and snapshots.

The subsystem splits dual-layer, mirroring the in-memory design: numeric
columns live as per-version ``.npy`` files attached read-only via mmap
(:mod:`~repro.storage.npyio`, :mod:`~repro.storage.store`), while the
object side — node/edge properties, value interning, version metadata
and the atomic-publish manifest — lives in a SQLite catalog
(:mod:`~repro.storage.catalog`).  :mod:`~repro.storage.layout` is the
buffer-layout contract shared with the shared-memory codec
(``repro.service.shm``) so the two serialisation paths cannot drift.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "layout": ("decode_rows", "encode_rows", "ROW_DTYPES"),
    "store": (
        "FrameStore", "GRAPH_CLASSES", "InjectedCrash", "SNAPSHOT_COLUMNS", "StoredSnapshot",
        "StoreError",
    ),
}, submodules=("catalog", "layout", "npyio"))
