"""SO_REUSEPORT worker-pool serving over shared-memory snapshots.

One process cannot outrun its GIL, so scale-out runs N copies of the
asyncio server (``repro.service.server``) as separate processes, all
listening on the **same** port via ``SO_REUSEPORT`` — the kernel
load-balances accepted connections across the listening sockets, no
userspace proxy involved.  What makes N processes cheap is the segment
codec (``repro.service.shm``): every worker attaches the same read-only
shared-memory snapshot, so the heavy columnar buffers exist once in
physical memory no matter how many workers serve them.

Topology::

    parent (ServicePool)                     worker i (x N)
    ------------------------                 -----------------------------
    builds snapshots (one lineage            attaches segments (zero-copy),
    per tenant), seals segments,             binds each to its tenant in a
    supervises workers,        == Pipe ==>   GraphRegistry, runs a
    serializes mutations and   <== Pipe ==   ReasoningService with
    tenant admin, merges                     reuse_port=True, forwards
    metrics                                  mutations + tenant admin

The parent is the **single builder** for every tenant: it owns each
tenant's staging graph and incremental :class:`SnapshotBuilder`, applies
mutation batches one at a time, seals each new version into a fresh
segment (the segment name and TOC carry the tenant), and publishes by
*version handoff* — a ``publish`` message naming the tenant and the
segment.  Workers attach the new segment, swap **that tenant's**
:class:`SnapshotManager` atomically (readers in flight keep the old
snapshot via their reference — no torn reads; other tenants' managers
are untouched), acknowledge, and retire the old attachment.  Retirement
is refcount-safe by construction: ``SharedMemory.close`` raises
``BufferError`` while any numpy view into the mapping is still alive,
so each worker just retries the close until its in-flight readers are
done, then reports ``released``; the parent unlinks a segment only
after every worker that attached it has released it (a crashed worker
counts as released — the kernel dropped its maps).

Tenant admin from any worker (``PUT/DELETE /t/{tenant}``) is forwarded
to the parent, which creates (or retires) the tenant fleet-wide so every
worker serves the same tenant set.

Failure handling: the parent supervises worker processes and restarts a
crashed worker against the current segment set (bounded by
``PoolConfig.restart_limit``); ``SIGTERM`` triggers a graceful drain —
workers stop accepting, finish in-flight requests, and exit before the
parent unlinks the segments.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import multiprocessing
import multiprocessing.connection
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from ..graph.company_graph import CompanyGraph
from ..linkage.bayes import BayesianLinkClassifier
from ..telemetry import NULL_TRACER
from . import shm as shm_codec
from .registry import GraphRegistry, TenantError, UnknownTenantError, validate_tenant
from .server import Metrics, ReasoningService, ServiceConfig
from .snapshot import (
    DEFAULT_TENANT,
    Snapshot,
    SnapshotBuilder,
    SnapshotConfig,
    SnapshotManager,
)
from .updates import MutationError, apply_deltas

logger = logging.getLogger(__name__)


@dataclass
class PoolConfig:
    """Knobs of the worker pool itself (the HTTP knobs live in
    :class:`ServiceConfig`)."""

    #: restarts allowed per worker slot before the slot is abandoned
    restart_limit: int = 3
    #: how long the parent waits for every worker to attach a new version
    publish_timeout_s: float = 60.0
    #: how long the parent waits for the initial worker fleet to come up
    start_timeout_s: float = 120.0
    #: graceful-drain budget on stop/SIGTERM
    drain_timeout_s: float = 10.0
    #: retry cadence of the worker-side retired-segment close sweep
    sweep_interval_s: float = 0.2
    #: multiprocessing start method; fork is fastest on Linux, and all
    #: worker arguments are picklable so spawn works where fork doesn't
    start_method: str = "fork"


class PoolError(RuntimeError):
    """The pool could not reach or keep its requested worker fleet."""


@dataclass
class _PoolTenant:
    """Parent-side build state of one tenant: its staging graph, its
    incremental builder, and the oracle snapshot equal to what the
    workers serve for it."""

    name: str
    staging: CompanyGraph
    builder: SnapshotBuilder
    oracle: Snapshot | None = None
    current_version: int = 0


# ======================================================================
# parent side
# ======================================================================


class ServicePool:
    """N SO_REUSEPORT serving processes + this process as the builder.

    ``start()`` builds snapshot v1 of every seeded tenant, seals each
    into a shared segment, reserves the port, launches the workers, and
    returns once every worker accepts connections.  ``oracle`` always
    holds the in-process :class:`Snapshot` equal to what the workers
    serve for the *primary* tenant (the one un-prefixed routes alias
    to) — the benchmark and the race tests assert per-row response
    identity against it; ``oracle_for(tenant)`` is the per-tenant view.
    """

    def __init__(
        self,
        graph: CompanyGraph,
        workers: int,
        config: ServiceConfig | None = None,
        snapshot_config: SnapshotConfig | None = None,
        classifiers: Sequence[BayesianLinkClassifier] | None = None,
        tracer=None,
        pool_config: PoolConfig | None = None,
        start_versions: dict[str, int] | None = None,
        initial_snapshot: Snapshot | None = None,
        persist_hook=None,
        tenant: str = DEFAULT_TENANT,
        initial_snapshots: dict[str, Snapshot] | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        validate_tenant(tenant)
        self.requested_workers = workers
        self.config = config if config is not None else ServiceConfig()
        self.pool_config = pool_config if pool_config is not None else PoolConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._snapshot_config = snapshot_config
        self._classifiers = classifiers
        #: the tenant un-prefixed routes resolve to on every worker
        self.primary = tenant
        #: tenant -> the version number its builder resumes after (a
        #: durable store's newest, which a rolled-back
        #: ``initial_snapshot`` may be older than)
        self._start_versions = dict(start_versions or {})
        self._tenants: dict[str, _PoolTenant] = {
            tenant: _PoolTenant(
                name=tenant,
                staging=graph,
                builder=SnapshotBuilder(
                    snapshot_config, classifiers=classifiers, tracer=self.tracer,
                    start_version=self._start_versions.get(
                        tenant, initial_snapshot.version if initial_snapshot else 0
                    ),
                ),
            )
        }
        #: pre-built snapshot adopted by ``start()`` instead of a cold
        #: build — how ``serve --store --workers N`` boots from a durable
        #: attach.  Not re-persisted (it came from the store).
        self._initial_snapshot = initial_snapshot
        #: additional tenants booted from durable snapshots
        #: (``serve --store`` restart attaching every tenant's latest)
        self._initial_snapshots = dict(initial_snapshots or {})
        self._initial_snapshots.pop(tenant, None)
        #: callable(snapshot, tenant) persisting each freshly built
        #: version (e.g. wrapping ``FrameStore.persist``); failures are
        #: counted, not fatal.  It may return a dict saying what it wrote
        #: (``FrameStore.last_persist``), kept as ``last_persist``.
        self.persist_hook = persist_hook
        self.persists = 0
        self.persist_failures = 0
        self.last_persist_error: dict[str, Any] | None = None
        self.last_persist: dict[str, Any] | None = None
        self._ctx = multiprocessing.get_context(self.pool_config.start_method)
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self._conns: dict[int, multiprocessing.connection.Connection] = {}
        self._restarts: dict[int, int] = {}
        self.restarts = 0
        #: segment bookkeeping: (tenant, version) -> creator handle /
        #: name / attached workers
        self._segments: dict[tuple[str, int], Any] = {}
        self._segment_names: dict[tuple[str, int], str] = {}
        self._attached: dict[tuple[str, int], set[int]] = {}
        self._segment_seq = itertools.count(1)
        #: worker -> last primary-tenant version it acknowledged
        self.worker_versions: dict[int, int] = {}
        #: worker -> {tenant: version} across every tenant it serves
        self.worker_tenant_versions: dict[int, dict[str, int]] = {}
        #: worker -> (attach_s, swap_pause_s) of its last publish swap
        self.last_swap: dict[int, dict[str, float]] = {}
        self._lock = threading.RLock()
        self._mutate_lock = threading.Lock()
        self._publish_events: dict[tuple[str, int], threading.Event] = {}
        self._metric_replies: dict[int, dict[int, Any]] = {}
        self._metric_events: dict[int, threading.Event] = {}
        self._request_seq = 0
        self._reserve_sock: socket.socket | None = None
        self._supervisor: threading.Thread | None = None
        self._stopping = threading.Event()
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def _builder(self) -> SnapshotBuilder:
        """The primary tenant's builder (kept for pre-tenancy callers)."""
        return self._tenants[self.primary].builder

    @property
    def oracle(self) -> Snapshot:
        """The in-process snapshot identical to what workers serve for
        the primary tenant."""
        return self.oracle_for(self.primary)

    def oracle_for(self, tenant: str) -> Snapshot:
        state = self._tenants.get(tenant)
        if state is None:
            raise UnknownTenantError(tenant)
        if state.oracle is None:
            raise PoolError("pool not started")
        return state.oracle

    @property
    def version(self) -> int:
        return self._tenants[self.primary].current_version

    def version_for(self, tenant: str) -> int:
        state = self._tenants.get(tenant)
        if state is None:
            raise UnknownTenantError(tenant)
        return state.current_version

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def live_workers(self) -> list[int]:
        with self._lock:
            return sorted(
                w for w, p in self._procs.items() if p.is_alive() and w in self._conns
            )

    def segment_names(self) -> list[str]:
        """Names of segments the pool still holds (leak check hook)."""
        with self._lock:
            return [self._segment_names[k] for k in sorted(self._segments)]

    def start(self) -> "ServicePool":
        primary = self._tenants[self.primary]
        if self._initial_snapshot is not None:
            snapshot = self._initial_snapshot
        else:
            snapshot = primary.builder.build(primary.staging)
            self._persist(snapshot, self.primary)
        self._adopt_version(self.primary, snapshot)
        for name, extra in self._initial_snapshots.items():
            validate_tenant(name)
            self._tenants[name] = _PoolTenant(
                name=name,
                staging=extra.graph,
                builder=SnapshotBuilder(
                    self._snapshot_config, classifiers=self._classifiers,
                    tracer=self.tracer,
                    start_version=self._start_versions.get(name, extra.version),
                ),
            )
            self._adopt_version(name, extra)
        self._reserve_port()
        for worker_id in range(self.requested_workers):
            self._spawn(worker_id)
        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        self._supervisor.start()
        deadline = time.monotonic() + self.pool_config.start_timeout_s
        while True:
            with self._lock:
                current = self.version
                ready = [
                    w
                    for w in range(self.requested_workers)
                    if self.worker_versions.get(w) == current
                ]
            if len(ready) == self.requested_workers:
                return self
            if time.monotonic() >= deadline:
                self.stop(drain=False)
                raise PoolError(
                    f"only {len(ready)}/{self.requested_workers} workers came up "
                    f"within {self.pool_config.start_timeout_s}s"
                )
            time.sleep(0.01)

    def _persist(self, snapshot: Snapshot, tenant: str) -> None:
        if self.persist_hook is None:
            return
        try:
            wrote = self.persist_hook(snapshot, tenant)
            self.persists += 1
            if isinstance(wrote, dict):
                self.last_persist = wrote
        except Exception as exc:
            self.persist_failures += 1
            self.last_persist_error = {
                "tenant": tenant,
                "version": snapshot.version,
                "error": repr(exc),
            }
            logger.exception(
                "durable persist of tenant %s version %s failed",
                tenant, snapshot.version,
            )

    def persist_stats(self) -> dict[str, Any] | None:
        """The ``persist`` section workers serve under ``/stats`` (pool-wide
        counters; ``None`` without a persist hook)."""
        if self.persist_hook is None:
            return None
        return {
            "persists": self.persists,
            "persist_failures": self.persist_failures,
            "last_persist_error": self.last_persist_error,
            "last_persist": self.last_persist,
        }

    def _segment_name(self, tenant: str, version: int) -> str:
        # deterministic prefix (leak checks grep for it) + a sequence
        # number so a tenant re-created after deletion can reuse version
        # numbers while its old segment is still draining
        return f"rkgs_{tenant}_v{version}_{os.getpid()}_{next(self._segment_seq)}"

    def _adopt_version(self, tenant: str, snapshot: Snapshot) -> None:
        segment = shm_codec.encode_snapshot(
            snapshot, name=self._segment_name(tenant, snapshot.version), tenant=tenant
        )
        state = self._tenants[tenant]
        with self._lock:
            key = (tenant, snapshot.version)
            self._segments[key] = segment
            self._segment_names[key] = segment.name
            self._attached[key] = set()
            previous = state.current_version
            state.current_version = snapshot.version
            state.oracle = snapshot
        if previous:
            self._maybe_unlink((tenant, previous))

    def _reserve_port(self) -> None:
        """Pin the port with a bound (never listening) SO_REUSEPORT socket.

        With ``port=0`` this is what picks the ephemeral port all workers
        then share; because the socket never listens, the kernel balances
        incoming connections over the workers only.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, self.config.port))
        self._reserve_sock = sock
        self.port = sock.getsockname()[1]

    def _spawn(self, worker_id: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        config = ServiceConfig(**{**self.config.__dict__, "port": self.port})
        with self._lock:
            segments = {
                name: (
                    self._segment_names[(name, state.current_version)],
                    state.current_version,
                )
                for name, state in self._tenants.items()
            }
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                child_conn,
                config,
                segments,
                self.primary,
                self.pool_config.sweep_interval_s,
                self.persist_stats(),
            ),
            name=f"repro-serve-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        with self._lock:
            self._procs[worker_id] = proc
            self._conns[worker_id] = parent_conn

    def stop(self, drain: bool = True) -> None:
        """Shut the pool down; with ``drain`` workers finish in-flight
        requests (bounded by ``drain_timeout_s``) before exiting."""
        self._stopping.set()
        with self._lock:
            conns = dict(self._conns)
        if drain:
            for conn in conns.values():
                _try_send(conn, {"op": "drain", "timeout_s": self.pool_config.drain_timeout_s})
            deadline = time.monotonic() + self.pool_config.drain_timeout_s + 2.0
            for proc in list(self._procs.values()):
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for conn in conns.values():
            _try_send(conn, {"op": "stop"})
        for proc in list(self._procs.values()):
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        with self._lock:
            for conn in self._conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
            self._conns.clear()
            self._procs.clear()
            keys = list(self._segments)
        for key in keys:
            self._unlink(key)
        if self._reserve_sock is not None:
            self._reserve_sock.close()
            self._reserve_sock = None
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
            self._supervisor = None

    def __enter__(self) -> "ServicePool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- mutations: the parent is the single builder -------------------

    def mutate(
        self,
        deltas: Sequence[dict[str, Any]],
        wait: bool = True,
        tenant: str | None = None,
    ) -> dict[str, Any]:
        """Apply one mutation batch to ``tenant`` (primary when omitted),
        build, seal, publish to all workers.

        Mirrors :class:`GraphUpdater` semantics (staging copy, whole-batch
        validation, incremental build) but runs synchronously in the
        parent — the pool serializes batches, workers only forward.
        Other tenants' versions are untouched.
        """
        if not deltas:
            raise MutationError("empty delta batch")
        name = tenant if tenant is not None else self.primary
        with self._mutate_lock:
            state = self._tenants.get(name)
            if state is None:
                raise UnknownTenantError(name)
            base = state.staging
            candidate = base.copy()
            batch = apply_deltas(candidate, deltas)  # MutationError -> 400 upstream
            batch.base = base
            batch.base_generation = base.generation
            new_edges = None if batch.removed_any else batch.new_edges
            started = time.perf_counter()
            snapshot = state.builder.build(candidate, new_edges=new_edges, delta=batch)
            state.staging = candidate
            self._adopt_version(name, snapshot)
            self._persist(snapshot, name)
            published = self._await_fleet(name, snapshot.version)
            return {
                "status": "published",
                "applied": len(deltas),
                "tenant": name,
                "version": snapshot.version,
                "build_s": round(time.perf_counter() - started, 4),
                "warm_build": snapshot.warm,
                "workers_attached": published,
            }

    # -- tenant admin: the parent owns the tenant set ------------------

    def create_tenant(self, name: str) -> tuple[int, dict[str, Any]]:
        """Create an empty tenant fleet-wide; idempotent.

        Returns ``(http_status, payload)`` — the reply of the worker's
        forwarded ``PUT /t/{tenant}``.
        """
        validate_tenant(name)
        with self._mutate_lock:
            state = self._tenants.get(name)
            if state is not None:
                return 200, {
                    "status": "exists",
                    "tenant": name,
                    "version": state.current_version,
                }
            graph = CompanyGraph()
            builder = SnapshotBuilder(
                self._snapshot_config, classifiers=self._classifiers,
                tracer=self.tracer,
            )
            snapshot = builder.build(graph)
            self._tenants[name] = _PoolTenant(
                name=name, staging=graph, builder=builder
            )
            self._adopt_version(name, snapshot)
            self._persist(snapshot, name)
            self._await_fleet(name, snapshot.version)
            return 201, {
                "status": "created",
                "tenant": name,
                "version": snapshot.version,
                "workers": self.live_workers(),
            }

    def delete_tenant(self, name: str) -> tuple[int, dict[str, Any]]:
        """Drop a tenant fleet-wide (the primary tenant is protected)."""
        if name == self.primary:
            return 400, {"error": f"cannot delete the alias tenant {name!r}"}
        with self._mutate_lock:
            state = self._tenants.pop(name, None)
            if state is None:
                return 404, {"error": f"unknown tenant: {name}"}
            version = state.current_version
            with self._lock:
                conns = dict(self._conns)
            for conn in conns.values():
                _try_send(conn, {"op": "retire_tenant", "tenant": name})
            # workers drop the binding immediately (404s start now) and
            # release the segment once their in-flight reads finish; the
            # release messages drive the unlink.  Dropping the oracle
            # here lets the parent-side views die with it.
            self._maybe_unlink((name, version))
            return 200, {"status": "deleted", "tenant": name, "version": version}

    def _await_fleet(self, tenant: str, version: int) -> list[int]:
        """Broadcast ``publish`` and wait until every live worker swapped."""
        event = threading.Event()
        key = (tenant, version)
        with self._lock:
            self._publish_events[key] = event
            conns = dict(self._conns)
            name = self._segment_names[key]
        for conn in conns.values():
            _try_send(
                conn,
                {
                    "op": "publish",
                    "tenant": tenant,
                    "name": name,
                    "version": version,
                    "persist": self.persist_stats(),
                },
            )
        deadline = time.monotonic() + self.pool_config.publish_timeout_s
        while not self._fleet_attached(key):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                with self._lock:
                    attached = sorted(self._attached.get(key, ()))
                raise PoolError(
                    f"tenant {tenant} version {version} reached only workers "
                    f"{attached} within {self.pool_config.publish_timeout_s}s"
                )
            event.wait(timeout=min(remaining, 0.05))
            event.clear()
        with self._lock:
            self._publish_events.pop(key, None)
            return sorted(self._attached.get(key, ()))

    def _fleet_attached(self, key: tuple[str, int]) -> bool:
        with self._lock:
            live = {
                w for w, p in self._procs.items() if p.is_alive() and w in self._conns
            }
            return live <= self._attached.get(key, set()) and bool(live)

    # -- metrics aggregation -------------------------------------------

    def cluster_metrics(self, timeout_s: float = 5.0) -> dict[str, Any]:
        """Merged per-worker counters + supervisor state (the payload of
        ``GET /metrics?scope=cluster`` on any worker)."""
        with self._lock:
            self._request_seq += 1
            request_id = self._request_seq
            self._metric_replies[request_id] = {}
            event = self._metric_events[request_id] = threading.Event()
            conns = dict(self._conns)
        for conn in conns.values():
            _try_send(conn, {"op": "metrics?", "id": request_id})
        deadline = time.monotonic() + timeout_s
        while True:
            with self._lock:
                replies = self._metric_replies[request_id]
                live = set(self.live_workers())
                done = live <= set(replies)
            if done or time.monotonic() >= deadline:
                break
            event.wait(timeout=0.05)
            event.clear()
        with self._lock:
            replies = self._metric_replies.pop(request_id)
            self._metric_events.pop(request_id, None)
            worker_versions = dict(self.worker_versions)
            worker_tenant_versions = {
                w: dict(v) for w, v in self.worker_tenant_versions.items()
            }
            last_swap = {w: dict(s) for w, s in self.last_swap.items()}
            tenant_versions = {
                name: state.current_version
                for name, state in self._tenants.items()
            }
        ordered = [replies[w] for w in sorted(replies)]
        return {
            "scope": "cluster",
            "workers": sorted(replies),
            "snapshot_version": self.version,
            "primary_tenant": self.primary,
            "tenants": tenant_versions,
            "worker_versions": worker_versions,
            "worker_tenant_versions": worker_tenant_versions,
            "restarts": self.restarts,
            "last_swap": last_swap,
            "segments": self.segment_names(),
            "merged": Metrics.merge([p for p in ordered if isinstance(p, dict)]),
            "per_worker": {w: replies[w] for w in sorted(replies)},
        }

    # -- supervision ---------------------------------------------------

    def _supervise(self) -> None:
        while not self._stopping.is_set():
            with self._lock:
                conns = dict(self._conns)
                sentinels = {p.sentinel: w for w, p in self._procs.items()}
            waitable = list(conns.values()) + list(sentinels)
            if not waitable:
                return
            try:
                ready = multiprocessing.connection.wait(waitable, timeout=0.25)
            except OSError:
                continue
            for item in ready:
                if isinstance(item, multiprocessing.connection.Connection):
                    worker_id = next(
                        (w for w, c in conns.items() if c is item), None
                    )
                    if worker_id is None:
                        continue
                    try:
                        message = item.recv()
                    except (EOFError, OSError):
                        self._on_worker_gone(worker_id)
                        continue
                    self._on_message(worker_id, message)
                else:  # a process sentinel became ready: the worker died
                    self._on_worker_gone(sentinels[item])

    def _on_message(self, worker_id: int, message: dict[str, Any]) -> None:
        op = message.get("op")
        if op == "ready":
            versions: dict[str, int] = message.get("versions") or {}
            with self._lock:
                for tenant, version in versions.items():
                    self._attached.setdefault((tenant, version), set()).add(worker_id)
                    self.worker_tenant_versions.setdefault(worker_id, {})[tenant] = version
                if self.primary in versions:
                    self.worker_versions[worker_id] = versions[self.primary]
                events = [
                    self._publish_events.get((t, v)) for t, v in versions.items()
                ]
            for event in events:
                if event is not None:
                    event.set()
        elif op == "attached":
            tenant = message.get("tenant", self.primary)
            version = message["version"]
            with self._lock:
                self._attached.setdefault((tenant, version), set()).add(worker_id)
                self.worker_tenant_versions.setdefault(worker_id, {})[tenant] = version
                if tenant == self.primary:
                    self.worker_versions[worker_id] = version
                self.last_swap[worker_id] = {
                    "attach_s": message.get("attach_s", 0.0),
                    "swap_pause_s": message.get("swap_pause_s", 0.0),
                }
                event = self._publish_events.get((tenant, version))
            if event is not None:
                event.set()
        elif op == "released":
            tenant = message.get("tenant", self.primary)
            version = message["version"]
            with self._lock:
                self._attached.get((tenant, version), set()).discard(worker_id)
            self._maybe_unlink((tenant, version))
        elif op == "retired_tenant":
            tenant = message["tenant"]
            with self._lock:
                self.worker_tenant_versions.get(worker_id, {}).pop(tenant, None)
        elif op == "metrics":
            request_id = message.get("id")
            with self._lock:
                replies = self._metric_replies.get(request_id)
                if replies is not None:
                    replies[worker_id] = message.get("payload")
                event = self._metric_events.get(request_id)
            if event is not None:
                event.set()
        elif op == "mutate":
            threading.Thread(
                target=self._handle_forwarded_mutation,
                args=(worker_id, message),
                daemon=True,
            ).start()
        elif op == "admin":
            threading.Thread(
                target=self._handle_forwarded_admin,
                args=(worker_id, message),
                daemon=True,
            ).start()
        elif op == "metrics_cluster?":
            threading.Thread(
                target=self._handle_cluster_metrics,
                args=(worker_id, message),
                daemon=True,
            ).start()

    def _handle_forwarded_mutation(self, worker_id: int, message: dict[str, Any]) -> None:
        request_id = message.get("id")
        try:
            result = self.mutate(
                message.get("deltas") or [],
                wait=True,
                tenant=message.get("tenant"),
            )
            reply = {"op": "mutate_result", "id": request_id, "status": 200, "payload": result}
        except MutationError as exc:
            reply = {
                "op": "mutate_result",
                "id": request_id,
                "status": 400,
                "payload": {"error": str(exc)},
            }
        except UnknownTenantError as exc:
            reply = {
                "op": "mutate_result",
                "id": request_id,
                "status": 404,
                "payload": {"error": str(exc)},
            }
        except Exception as exc:  # noqa: BLE001 - worker must get an answer
            logger.exception("forwarded mutation failed")
            reply = {
                "op": "mutate_result",
                "id": request_id,
                "status": 500,
                "payload": {"error": f"{type(exc).__name__}: {exc}"},
            }
        with self._lock:
            conn = self._conns.get(worker_id)
        if conn is not None:
            _try_send(conn, reply)

    def _handle_forwarded_admin(self, worker_id: int, message: dict[str, Any]) -> None:
        request_id = message.get("id")
        action = message.get("action")
        tenant = message.get("tenant", "")
        try:
            if action == "create":
                status, payload = self.create_tenant(tenant)
            elif action == "delete":
                status, payload = self.delete_tenant(tenant)
            else:
                status, payload = 400, {"error": f"unknown admin action {action!r}"}
        except TenantError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - worker must get an answer
            logger.exception("forwarded tenant admin failed")
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        with self._lock:
            conn = self._conns.get(worker_id)
        if conn is not None:
            _try_send(
                conn,
                {
                    "op": "admin_result",
                    "id": request_id,
                    "status": status,
                    "payload": payload,
                },
            )

    def _handle_cluster_metrics(self, worker_id: int, message: dict[str, Any]) -> None:
        payload = self.cluster_metrics()
        with self._lock:
            conn = self._conns.get(worker_id)
        if conn is not None:
            _try_send(
                conn,
                {"op": "metrics_cluster", "id": message.get("id"), "payload": payload},
            )

    def _on_worker_gone(self, worker_id: int) -> None:
        with self._lock:
            if worker_id not in self._procs and worker_id not in self._conns:
                return  # sentinel + pipe EOF both fired; already handled
            proc = self._procs.pop(worker_id, None)
            conn = self._conns.pop(worker_id, None)
            self.worker_versions.pop(worker_id, None)
            self.worker_tenant_versions.pop(worker_id, None)
            # the kernel unmapped the dead worker's segments: that IS a release
            touched = [k for k, who in self._attached.items() if worker_id in who]
            for key in touched:
                self._attached[key].discard(worker_id)
            restarts = self._restarts.get(worker_id, 0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        for key in touched:
            self._maybe_unlink(key)
        if proc is not None:
            proc.join(timeout=0.5)
        if self._stopping.is_set():
            return
        if restarts >= self.pool_config.restart_limit:
            logger.error(
                "worker %d exceeded restart limit (%d); slot abandoned",
                worker_id,
                self.pool_config.restart_limit,
            )
            return
        logger.warning("worker %d died; restarting", worker_id)
        with self._lock:
            self._restarts[worker_id] = restarts + 1
            self.restarts += 1
        self._spawn(worker_id)

    # -- segment retirement --------------------------------------------

    def _maybe_unlink(self, key: tuple[str, int]) -> None:
        tenant, version = key
        with self._lock:
            state = self._tenants.get(tenant)
            # a dropped tenant's segments are all retired; a live
            # tenant's current version never is
            retired = state is None or version != state.current_version
            unreferenced = not self._attached.get(key)
        if retired and unreferenced:
            self._unlink(key)

    def _unlink(self, key: tuple[str, int]) -> None:
        with self._lock:
            segment = self._segments.pop(key, None)
            self._segment_names.pop(key, None)
            self._attached.pop(key, None)
        if segment is None:
            return
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        try:
            segment.close()
        except BufferError:  # parent still holds views (oracle frame): harmless,
            pass  # the kernel frees the pages once the mapping dies with us


def _try_send(conn: multiprocessing.connection.Connection, message: dict[str, Any]) -> bool:
    try:
        conn.send(message)
        return True
    except (BrokenPipeError, OSError):
        return False


# ======================================================================
# worker side
# ======================================================================


def _worker_main(
    worker_id: int,
    conn: multiprocessing.connection.Connection,
    config: ServiceConfig,
    segments: dict[str, tuple[str, int]],
    primary: str,
    sweep_interval_s: float,
    persist_stats: dict[str, Any] | None,
) -> None:
    """Entry point of one serving process (must stay picklable for spawn)."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates shutdown
    try:
        asyncio.run(
            _Worker(
                worker_id, conn, config, segments, primary, sweep_interval_s,
                persist_stats,
            ).run()
        )
    except Exception:  # pragma: no cover - crash path exercised via kill tests
        logger.exception("worker %d crashed", worker_id)
        raise
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """Asyncio half of a serving process: HTTP + the control channel."""

    def __init__(
        self,
        worker_id: int,
        conn: multiprocessing.connection.Connection,
        config: ServiceConfig,
        segments: dict[str, tuple[str, int]],
        primary: str,
        sweep_interval_s: float,
        persist_stats: dict[str, Any] | None,
    ):
        self.worker_id = worker_id
        self.conn = conn
        self.config = config
        self.segments = segments
        self.primary = primary
        self.sweep_interval_s = sweep_interval_s
        #: the parent's persist counters as of spawn; every ``publish``
        #: message refreshes its tenant's copy
        self._persist_stats = persist_stats
        self.service: ReasoningService | None = None
        self.registry = GraphRegistry()
        #: (tenant, version, SharedMemory) of swapped-out snapshots;
        #: holding only the handle (never the snapshot) lets the object
        #: graph die as soon as the last in-flight read drops it
        self._retired: list[tuple[str, int, Any]] = []
        self._pending: dict[int, asyncio.Future] = {}
        self._seq = 0
        self._stop = asyncio.Event()
        self._drain_timeout_s = 10.0
        self._send_lock = threading.Lock()

    def _send(self, message: dict[str, Any]) -> None:
        with self._send_lock:
            _try_send(self.conn, message)

    def _bind_tenant(self, tenant: str, segment_name: str) -> int:
        """Attach a segment and bind it as a fresh tenant; returns the
        attached snapshot version."""
        # no local snapshot binding outlives this call: a longer-lived
        # local would pin the version's views (and so its segment) forever
        manager = SnapshotManager()
        manager.publish(shm_codec.attach_snapshot(segment_name))
        self.registry.adopt(tenant, manager).persist_stats = self._persist_stats
        return manager.version

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        versions: dict[str, int] = {}
        # primary first: the first adopted tenant becomes the registry
        # alias, which is what un-prefixed routes resolve to
        ordered = [self.primary] + sorted(set(self.segments) - {self.primary})
        for tenant in ordered:
            name, _version = self.segments[tenant]
            versions[tenant] = self._bind_tenant(tenant, name)
        service = ReasoningService(
            config=self.config, worker_id=self.worker_id, registry=self.registry
        )
        service.mutation_forwarder = self._forward_mutation
        service.admin_forwarder = self._forward_admin
        service.cluster_metrics_provider = self._cluster_metrics
        self.service = service
        await service.start(reuse_port=True)

        queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        reader = threading.Thread(
            target=self._pump_control, args=(loop, queue), daemon=True
        )
        reader.start()
        sweeper = asyncio.create_task(self._sweep_retired())
        self._send(
            {
                "op": "ready",
                "worker": self.worker_id,
                "pid": os.getpid(),
                "versions": versions,
            }
        )
        try:
            while not self._stop.is_set():
                getter = asyncio.create_task(queue.get())
                stopper = asyncio.create_task(self._stop.wait())
                done, pending = await asyncio.wait(
                    (getter, stopper), return_when=asyncio.FIRST_COMPLETED
                )
                for task in pending:
                    task.cancel()
                if getter in done:
                    await self._handle(getter.result())
        finally:
            sweeper.cancel()
            await service.stop()

    def _pump_control(
        self, loop: asyncio.AbstractEventLoop, queue: asyncio.Queue
    ) -> None:
        """Blocking pipe reads on a thread, messages into the loop."""
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                loop.call_soon_threadsafe(self._stop.set)
                return
            loop.call_soon_threadsafe(queue.put_nowait, message)

    async def _handle(self, message: dict[str, Any]) -> None:
        op = message.get("op")
        if op == "publish":
            await self._on_publish(
                message.get("tenant", self.primary),
                message["name"],
                message["version"],
                message.get("persist"),
            )
        elif op == "retire_tenant":
            self._on_retire_tenant(message["tenant"])
        elif op == "drain":
            self._drain_timeout_s = message.get("timeout_s", self._drain_timeout_s)
            assert self.service is not None
            await self.service.drain(self._drain_timeout_s)
            self._send({"op": "drained", "worker": self.worker_id})
            self._stop.set()
        elif op == "stop":
            self._stop.set()
        elif op == "metrics?":
            assert self.service is not None
            self._send(
                {
                    "op": "metrics",
                    "id": message.get("id"),
                    "payload": self.service.metrics.to_dict(),
                }
            )
        elif op in ("mutate_result", "metrics_cluster", "admin_result"):
            future = self._pending.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result(message)

    async def _on_publish(
        self,
        tenant: str,
        name: str,
        version: int,
        persist_stats: dict[str, Any] | None,
    ) -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            snapshot = await loop.run_in_executor(None, shm_codec.attach_snapshot, name)
        except Exception as exc:  # noqa: BLE001 - stay on the old version
            logger.exception(
                "worker %d failed to attach tenant %s version %d",
                self.worker_id, tenant, version,
            )
            self._send(
                {
                    "op": "attach_failed",
                    "worker": self.worker_id,
                    "tenant": tenant,
                    "version": version,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            return
        attach_s = time.perf_counter() - started
        binding = self.registry.peek(tenant)
        if binding is None:
            # a tenant created after this worker spawned: bind fresh
            manager = SnapshotManager()
            manager.publish(snapshot)
            try:
                binding = self.registry.adopt(tenant, manager)
            except TenantError:  # raced a concurrent bind: retire ours
                self._retired.append((tenant, version, snapshot.shm))
                del snapshot
                return
            swap_pause_s = 0.0
        else:
            old = binding.manager.current
            binding.manager.publish(snapshot)  # the swap: one reference store
            swap_pause_s = binding.manager.last_swap_pause_s
            if isinstance(old, shm_codec.AttachedSnapshot):
                self._retired.append((tenant, old.version, old.shm))
            del old  # our reference; in-flight reads keep theirs
        binding.persist_stats = persist_stats
        self._send(
            {
                "op": "attached",
                "worker": self.worker_id,
                "tenant": tenant,
                "version": version,
                "attach_s": attach_s,
                "swap_pause_s": swap_pause_s,
            }
        )

    def _on_retire_tenant(self, tenant: str) -> None:
        try:
            binding = self.registry.drop(tenant)
        except UnknownTenantError:
            return
        if self.service is not None:
            # a same-named tenant created later restarts at version 1
            self.service.cache.evict_tenant(tenant)
        try:
            current = binding.manager.current
        except RuntimeError:
            current = None
        if isinstance(current, shm_codec.AttachedSnapshot):
            self._retired.append((tenant, current.version, current.shm))
        del current, binding
        self._send(
            {"op": "retired_tenant", "worker": self.worker_id, "tenant": tenant}
        )

    async def _sweep_retired(self) -> None:
        """Release retired segments once no in-flight read references them.

        A retired snapshot's numpy views keep exported pointers into the
        mapping, and ``SharedMemory.close`` refuses (``BufferError``) to
        unmap while any exist — so "retry close until it succeeds" *is*
        the refcount.  The local reference is dropped first; once the
        cache keys, batcher groups, and executor reads referencing the
        snapshot are gone, the close lands and the parent learns the
        worker released the version.
        """
        import gc

        while True:
            await asyncio.sleep(self.sweep_interval_s)
            if not self._retired:
                continue
            # graph <-> frame form a cycle, so the retired snapshot needs
            # a collector pass even after the last reader dropped it
            gc.collect()
            survivors: list[tuple[str, int, Any]] = []
            for tenant, version, handle in self._retired:
                try:
                    handle.close()
                except BufferError:  # views still exported: a read is live
                    survivors.append((tenant, version, handle))
                    continue
                self._send(
                    {
                        "op": "released",
                        "worker": self.worker_id,
                        "tenant": tenant,
                        "version": version,
                    }
                )
            self._retired = survivors

    # -- forwarded endpoints -------------------------------------------

    def _next_request(self) -> tuple[int, asyncio.Future]:
        self._seq += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[self._seq] = future
        return self._seq, future

    async def _forward_mutation(
        self, tenant: str, deltas: list[Any], wait: bool
    ) -> tuple[int, Any]:
        request_id, future = self._next_request()
        self._send(
            {
                "op": "mutate",
                "id": request_id,
                "worker": self.worker_id,
                "tenant": tenant,
                "deltas": deltas,
                "wait": wait,
            }
        )
        reply = await future
        return reply.get("status", 500), reply.get("payload")

    async def _forward_admin(self, action: str, tenant: str) -> tuple[int, Any]:
        request_id, future = self._next_request()
        self._send(
            {
                "op": "admin",
                "id": request_id,
                "worker": self.worker_id,
                "action": action,
                "tenant": tenant,
            }
        )
        reply = await future
        return reply.get("status", 500), reply.get("payload")

    async def _cluster_metrics(self) -> Any:
        request_id, future = self._next_request()
        self._send({"op": "metrics_cluster?", "id": request_id, "worker": self.worker_id})
        reply = await future
        return reply.get("payload")
