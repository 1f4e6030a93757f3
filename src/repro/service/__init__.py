"""The reasoning API of Section 5 — serving the KG to applications.

The paper's architecture interposes a reasoning layer between the stored
ownership knowledge graph and the enterprise applications that query it;
the Vadalog System paper frames the same layer as *reasoning as a
service*.  This package is that layer for the reproduction: a
dependency-free asyncio HTTP JSON API over immutable, versioned KG
snapshots.

* :mod:`~repro.service.snapshot` — read-optimized snapshots (the graph,
  family links, control closure, close links, UBO index),
  identified by a monotonically increasing version and swapped
  atomically so readers never block;
* :mod:`~repro.service.registry` — the tenant dimension: a
  :class:`GraphRegistry` maps tenant ids to their own snapshot manager,
  builder and updater, so one service hosts many isolated graphs
  (``/t/{tenant}/...`` routing; un-prefixed routes alias to the seeded
  tenant);
* :mod:`~repro.service.cache` — bounded LRU keyed by
  ``(tenant, snapshot_version, endpoint, params)`` with single-flight
  coalescing and a micro-batcher for point lookups;
* :mod:`~repro.service.server` — the stdlib asyncio HTTP/1.1 server
  with admission control (concurrency semaphore, bounded queue -> 429,
  per-request deadline -> 504) and ``/metrics`` telemetry export;
* :mod:`~repro.service.updates` — the one tenant write path (stage →
  build → publish → hand-off → persist): deltas against a staging
  graph, re-augmentation through the warm
  :class:`~repro.embeddings.IncrementalEmbedder`, atomic publish of the
  next snapshot version while the old one keeps serving;
* :mod:`~repro.service.shm` — the shared-memory snapshot codec: one
  named segment per version holding the base graph and the precomputed
  row state — what the durable store holds — decoded by each reader
  process, which recomputes the columnar frame;
* :mod:`~repro.service.workers` — ``serve --workers N`` scale-out: N
  ``SO_REUSEPORT`` serving processes decoding each published segment, the
  parent as single builder/supervisor publishing by version handoff.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("LRUCache", "MicroBatcher", "ReasoningCache", "SingleFlight"),
    "incremental": ("DeltaBatch",),
    "registry": (
        "DEFAULT_TENANT", "GraphRegistry", "TenantBinding", "TenantError", "UnknownTenantError",
        "validate_tenant",
    ),
    "server": ("build_service", "HttpError", "Metrics", "ReasoningService", "ServiceConfig"),
    "shm": ("attach_snapshot", "AttachedSnapshot", "encode_snapshot", "SegmentError"),
    "snapshot": ("Snapshot", "SnapshotBuilder", "SnapshotConfig", "SnapshotManager"),
    "updates": ("apply_deltas", "GraphUpdater", "MutationError", "Persister"),
    "workers": ("PoolConfig", "PoolError", "ServicePool"),
})
