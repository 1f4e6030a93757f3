"""SO_REUSEPORT worker-pool serving over shared-memory snapshots.

One process cannot outrun its GIL, so scale-out runs N copies of the
asyncio server (``repro.service.server``) as separate processes, all
listening on the **same** port via ``SO_REUSEPORT`` — the kernel
load-balances accepted connections across the listening sockets, no
userspace proxy involved.  The parent builds every version once and
hands it over as one shared-memory segment (``repro.service.shm``): the
base graph plus what reasoning derived, which each worker decodes and
recomputes its columnar frame from, as a store attach does.

Topology::

    parent (ServicePool)                     worker i (x N)
    ------------------------                 -----------------------------
    owns the GraphRegistry of                decodes each segment it is sent,
    builders, hands every new                binds each to its tenant in a
    version off as a segment,  == Pipe ==>   registry of bare managers,
    supervises workers,        <== Pipe ==   runs a ReasoningService with
    serializes mutations and                 reuse_port=True, forwards
    tenant admin, merges                     mutations + tenant admin
    metrics

The parent is the **single builder** for every tenant, and it builds
through the same code as the single-process service: its
:class:`GraphRegistry` binds each tenant's manager, builder and
:class:`~repro.service.updates.GraphUpdater`, and a mutation batch or a
tenant creation runs that updater's write path (stage -> build ->
publish -> hand-off -> persist) one at a time under the pool's mutate
lock.  The pool contributes only the **hand-off**: seal the new version
into a fresh segment (its name carries the tenant, for the leak checks),
broadcast a ``publish`` message naming the tenant and the segment, and
wait until every live worker acknowledged that segment.  Workers attach
it and swap **that tenant's** :class:`SnapshotManager` atomically
(readers in flight keep the old snapshot via their reference — no torn
reads; other tenants' managers are untouched).

Retiring a segment is unlinking it.  The parent unlinks a tenant's
previous segment once every live worker acknowledged its successor (or
that publish failed), and a deleted tenant's segment at once.  A worker
maps a segment only while attaching it, and retires a version by
dropping its reference: reads in flight finish on their snapshot.
Acknowledgements are keyed by segment name, unique per seal, so
a re-created tenant restarting at version 1 never meets an older
segment's bookkeeping.

Tenant admin from any worker (``PUT/DELETE /t/{tenant}``) is forwarded
to the parent, which creates (or retires) the tenant fleet-wide so every
worker serves the same tenant set.

Failure handling: the parent supervises worker processes and restarts a
crashed worker against the current segment set (bounded by
``PoolConfig.restart_limit``); a worker that cannot attach a published
segment fails that publish at once; ``SIGTERM`` triggers a graceful
drain — workers stop accepting, finish in-flight requests, and exit
before the parent unlinks the segments.
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
from . import shm as shm_codec
from .registry import GraphRegistry, TenantError, UnknownTenantError, validate_tenant
from .server import Metrics, ReasoningService, ServiceConfig, import_before_serving
from .snapshot import DEFAULT_TENANT, Snapshot, SnapshotManager
from .updates import MutationError

logger = logging.getLogger(__name__)

#: segment-name sequence, process-wide: two pools in one process seal the
#: same (tenant, version) under distinct names
_SEGMENT_SEQ = itertools.count(1)


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
    #: multiprocessing start method; fork is fastest on Linux, and all
    #: worker arguments are picklable so spawn works where fork doesn't
    start_method: str = "fork"


class PoolError(RuntimeError):
    """The pool could not reach or keep its requested worker fleet."""


# ======================================================================
# parent side
# ======================================================================


class ServicePool:
    """N SO_REUSEPORT serving processes + this process as the builder.

    ``source`` is the populated :class:`GraphRegistry` the pool builds
    through — ``serve --workers N`` boots one exactly as ``serve`` does —
    or, for convenience, a bare graph, which becomes version 1 of the
    ``default`` tenant.  ``start()`` seals every tenant's current
    snapshot into a shared segment, reserves the port, launches the
    workers, and returns once every worker accepts connections.
    ``oracle`` always holds the in-process :class:`Snapshot` equal to
    what the workers serve for the *primary* tenant (the registry's
    alias, which un-prefixed routes resolve to) — the benchmark and the
    race tests assert per-row response identity against it;
    ``oracle_for(tenant)`` is the per-tenant view.
    """

    def __init__(
        self,
        source: GraphRegistry | CompanyGraph,
        workers: int,
        config: ServiceConfig | None = None,
        pool_config: PoolConfig | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not isinstance(source, GraphRegistry):
            graph, source = source, GraphRegistry()
            source.create(DEFAULT_TENANT, graph)
        #: the builder side of every tenant, as in the single-process service
        self.registry = source
        #: the tenant un-prefixed routes resolve to on every worker
        self.primary = source.alias
        self.requested_workers = workers
        self.config = config if config is not None else ServiceConfig()
        self.pool_config = pool_config if pool_config is not None else PoolConfig()
        self._ctx = multiprocessing.get_context(self.pool_config.start_method)
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self._conns: dict[int, multiprocessing.connection.Connection] = {}
        self._restarts: dict[int, int] = {}
        self.restarts = 0
        #: tenant -> creator handle of the segment last handed to the
        #: fleet, which a (re)started worker attaches
        self._segments: dict[str, Any] = {}
        #: segment name -> workers that acknowledged it / the attach
        #: error a worker reported while its publish waited
        self._acks: dict[str, set[int]] = {}
        self._attach_errors: dict[str, str] = {}
        #: workers that accept connections
        self._ready: set[int] = set()
        #: worker -> {tenant: version} across every tenant it serves
        self.worker_tenant_versions: dict[int, dict[str, int]] = {}
        #: worker -> (attach_s, swap_pause_s) of its last publish swap
        self.last_swap: dict[int, dict[str, float]] = {}
        self._lock = threading.RLock()
        #: notified when a worker turns ready or dies (``start`` waits on it)
        self._ready_changed = threading.Condition(self._lock)
        self._mutate_lock = threading.Lock()
        self._publish_events: dict[str, threading.Event] = {}
        self._metric_replies: dict[int, dict[int, Any]] = {}
        self._metric_events: dict[int, threading.Event] = {}
        self._request_seq = 0
        self._reserve_sock: socket.socket | None = None
        self._supervisor: threading.Thread | None = None
        self._stopping = threading.Event()
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def oracle(self) -> Snapshot:
        """The in-process snapshot identical to what workers serve for
        the primary tenant."""
        return self.oracle_for(self.primary)

    def oracle_for(self, tenant: str) -> Snapshot:
        return self.registry.get(tenant).manager.current

    @property
    def version(self) -> int:
        return self.version_for(self.primary)

    def version_for(self, tenant: str) -> int:
        return self.registry.get(tenant).version

    def tenants(self) -> list[str]:
        return sorted(self.registry.names())

    def live_workers(self) -> list[int]:
        with self._lock:
            return sorted(
                w for w, p in self._procs.items() if p.is_alive() and w in self._conns
            )

    def segment_names(self) -> list[str]:
        """Names of segments the pool still holds (leak check hook)."""
        with self._lock:
            return [self._segments[t].name for t in sorted(self._segments)]

    def start(self) -> "ServicePool":
        import_before_serving()  # once, shared by every fork
        for name, binding in self.registry.items():
            self._seal(binding.manager.current, name)
        self._reserve_port()
        for worker_id in range(self.requested_workers):
            self._spawn(worker_id)
        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        self._supervisor.start()
        with self._ready_changed:
            up = self._ready_changed.wait_for(
                lambda: len(self._ready) == self.requested_workers,
                timeout=self.pool_config.start_timeout_s,
            )
            ready = len(self._ready)
        if up:
            return self
        self.stop(drain=False)
        raise PoolError(
            f"only {ready}/{self.requested_workers} workers came up "
            f"within {self.pool_config.start_timeout_s}s"
        )

    def _seal(self, snapshot: Snapshot, tenant: str) -> Any:
        """Encode ``snapshot`` into a fresh segment, make it the tenant's
        current one, and return the segment it replaces (or ``None``)."""
        # deterministic prefix (leak checks grep for it) + a sequence
        # number, because a re-created tenant restarts at version 1
        name = f"rkgs_{tenant}_v{snapshot.version}_{os.getpid()}_{next(_SEGMENT_SEQ)}"
        segment = shm_codec.encode_snapshot(snapshot, name=name)
        # the parent never reads it back, and a worker forked later must
        # not inherit a mapping that would pin the segment past its unlink
        segment.close()
        with self._lock:
            previous = self._segments.get(tenant)
            self._segments[tenant] = segment
            self._acks[name] = set()
        return previous

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
            segments = {tenant: segment.name for tenant, segment in self._segments.items()}
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                child_conn,
                config,
                segments,
                self.primary,
                self.registry.persist.stats() if self.registry.persist else None,
            ),
            name=f"repro-serve-{worker_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        with self._lock:
            self._procs[worker_id] = proc
            self._conns[worker_id] = parent_conn

    def _broadcast(self, message: dict[str, Any]) -> None:
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            _try_send(conn, message)

    def stop(self, drain: bool = True) -> None:
        """Shut the pool down; with ``drain`` workers finish in-flight
        requests (bounded by ``drain_timeout_s``) before exiting."""
        self._stopping.set()
        if drain:
            self._broadcast({"op": "drain", "timeout_s": self.pool_config.drain_timeout_s})
            deadline = time.monotonic() + self.pool_config.drain_timeout_s + 2.0
            for proc in list(self._procs.values()):
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
        self._broadcast({"op": "stop"})
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
            segments = list(self._segments.values())
            self._segments.clear()
        for segment in segments:
            self._unlink(segment)
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
        self, deltas: Sequence[dict[str, Any]], tenant: str | None = None
    ) -> dict[str, Any]:
        """Apply one mutation batch to ``tenant`` (primary when omitted)
        and return once every worker serves the new version.

        The tenant's updater stages, builds, publishes and persists as
        it does single-process; the pool serializes batches (workers
        only forward) and supplies the hand-off.  Other tenants'
        versions are untouched.
        """
        name = tenant if tenant is not None else self.primary
        with self._mutate_lock:
            updater = self.registry.get(name).updater  # UnknownTenantError -> 404
            graph, batch = updater.stage(deltas)  # MutationError -> 400 upstream
            started = time.perf_counter()
            snapshot = updater.publish(graph, batch, handoff=self._handoff)
            self._sync_persist()
            with self._lock:
                attached = sorted(self._acks[self._segments[name].name])
            return {
                "status": "published",
                "applied": len(deltas),
                "tenant": name,
                "version": snapshot.version,
                "build_s": round(time.perf_counter() - started, 4),
                "warm_build": snapshot.warm,
                "workers_attached": attached,
            }

    def _handoff(self, snapshot: Snapshot, tenant: str) -> None:
        """The pool's hand-off of a published version: seal it into a
        segment, broadcast it, wait until every live worker swapped, then
        unlink the segment it replaced."""
        previous = self._seal(snapshot, tenant)
        try:
            self._await_fleet(tenant, snapshot.version)
        finally:
            if previous is not None:
                self._unlink(previous)

    def _sync_persist(self) -> None:
        """Workers answer ``/stats`` -> ``persist`` from the parent's
        counters; refresh their copy after a persist."""
        if self.registry.persist is not None:
            self._broadcast({"op": "persist", "stats": self.registry.persist.stats()})

    # -- tenant admin: the parent owns the tenant set ------------------

    def create_tenant(self, name: str) -> tuple[int, dict[str, Any]]:
        """Create an empty tenant fleet-wide; idempotent.

        Returns ``(http_status, payload)`` — the reply of the worker's
        forwarded ``PUT /t/{tenant}``.
        """
        validate_tenant(name)
        with self._mutate_lock:
            existing = self.registry.peek(name)
            if existing is not None:
                return 200, {
                    "status": "exists",
                    "tenant": name,
                    "version": existing.version,
                }
            try:
                binding = self.registry.create(name, handoff=self._handoff)
            except BaseException:
                self._retire(name)  # a failed hand-off may have reached some workers
                raise
            self._sync_persist()
            return 201, {
                "status": "created",
                "tenant": name,
                "version": binding.version,
                "workers": self.live_workers(),
            }

    def delete_tenant(self, name: str) -> tuple[int, dict[str, Any]]:
        """Drop a tenant fleet-wide (the primary tenant is protected)."""
        if name == self.primary:
            return 400, {"error": f"cannot delete the alias tenant {name!r}"}
        with self._mutate_lock:
            binding = self.registry.drop(name)  # UnknownTenantError -> 404
            self._retire(name)
            return 200, {"status": "deleted", "tenant": name, "version": binding.version}

    def _retire(self, tenant: str) -> None:
        # workers drop the binding at once (404s start now); reads in
        # flight keep their snapshot
        self._broadcast({"op": "retire_tenant", "tenant": tenant})
        with self._lock:
            segment = self._segments.pop(tenant, None)
        if segment is not None:
            self._unlink(segment)

    def _await_fleet(self, tenant: str, version: int) -> None:
        """Broadcast the tenant's current segment and wait until every
        live worker acknowledged it."""
        event = threading.Event()
        with self._lock:
            name = self._segments[tenant].name
            self._publish_events[name] = event
        self._broadcast({"op": "publish", "tenant": tenant, "name": name})
        deadline = time.monotonic() + self.pool_config.publish_timeout_s
        try:
            while not self._fleet_attached(name):
                with self._lock:
                    error = self._attach_errors.get(name)
                    attached = sorted(self._acks.get(name, ()))
                if error is not None:
                    raise PoolError(
                        f"tenant {tenant} version {version} failed to attach: {error}"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise PoolError(
                        f"tenant {tenant} version {version} reached only workers "
                        f"{attached} within {self.pool_config.publish_timeout_s}s"
                    )
                event.wait(timeout=min(remaining, 0.05))
                event.clear()
        finally:
            with self._lock:
                self._publish_events.pop(name, None)
                self._attach_errors.pop(name, None)

    def _fleet_attached(self, name: str) -> bool:
        with self._lock:
            live = set(self.live_workers())
            return live <= self._acks.get(name, set()) and bool(live)

    # -- metrics aggregation -------------------------------------------

    def cluster_metrics(self, timeout_s: float = 5.0) -> dict[str, Any]:
        """Merged per-worker counters + supervisor state (the payload of
        ``GET /metrics?scope=cluster`` on any worker)."""
        with self._lock:
            self._request_seq += 1
            request_id = self._request_seq
            self._metric_replies[request_id] = {}
            event = self._metric_events[request_id] = threading.Event()
        self._broadcast({"op": "metrics?", "id": request_id})
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
            worker_tenant_versions = {
                w: dict(v) for w, v in self.worker_tenant_versions.items()
            }
            last_swap = {w: dict(s) for w, s in self.last_swap.items()}
        ordered = [replies[w] for w in sorted(replies)]
        return {
            "scope": "cluster",
            "workers": sorted(replies),
            "snapshot_version": self.version,
            "primary_tenant": self.primary,
            "tenants": self.registry.stats()["versions"],
            "worker_versions": {
                w: v[self.primary]
                for w, v in worker_tenant_versions.items()
                if self.primary in v
            },
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
            with self._ready_changed:
                self._ready.add(worker_id)
                self._ready_changed.notify_all()
        elif op == "attached":
            name, tenant = message["name"], message["tenant"]
            with self._lock:
                if name in self._acks:  # else unlinked before this ack arrived
                    self._acks[name].add(worker_id)
                self.worker_tenant_versions.setdefault(worker_id, {})[tenant] = (
                    message["version"]
                )
                self.last_swap[worker_id] = {
                    "attach_s": message.get("attach_s", 0.0),
                    "swap_pause_s": message.get("swap_pause_s", 0.0),
                }
                event = self._publish_events.get(name)
            if event is not None:
                event.set()
        elif op == "attach_failed":
            name = message["name"]
            with self._lock:
                event = self._publish_events.get(name)
                if event is not None:  # fails the publish waiting on it at once
                    self._attach_errors[name] = f"worker {worker_id}: {message.get('error')}"
            if event is not None:
                event.set()
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
        elif op in ("mutate", "admin", "metrics_cluster?"):
            # these block on the fleet, which this thread must keep serving
            threading.Thread(
                target=self._handle_forwarded, args=(worker_id, message), daemon=True
            ).start()

    def _handle_forwarded(self, worker_id: int, message: dict[str, Any]) -> None:
        """Answer a worker's forwarded mutation, tenant admin or cluster
        metrics request; the worker always gets a reply."""
        op = message["op"]
        tenant = message.get("tenant")
        try:
            if op == "mutate":
                status, payload = 200, self.mutate(message.get("deltas") or [], tenant)
            elif op == "metrics_cluster?":
                status, payload = 200, self.cluster_metrics()
            elif message.get("action") == "create":
                status, payload = self.create_tenant(tenant)
            elif message.get("action") == "delete":
                status, payload = self.delete_tenant(tenant)
            else:
                status, payload = 400, {
                    "error": f"unknown admin action {message.get('action')!r}"
                }
        except (MutationError, TenantError) as exc:
            status, payload = 400, {"error": str(exc)}
        except UnknownTenantError as exc:
            status, payload = 404, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - worker must get an answer
            logger.exception("forwarded %s failed", op)
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        with self._lock:
            conn = self._conns.get(worker_id)
        if conn is not None:
            _try_send(
                conn,
                {
                    "op": "result",
                    "id": message.get("id"),
                    "status": status,
                    "payload": payload,
                },
            )

    def _on_worker_gone(self, worker_id: int) -> None:
        with self._ready_changed:
            if worker_id not in self._procs and worker_id not in self._conns:
                return  # sentinel + pipe EOF both fired; already handled
            proc = self._procs.pop(worker_id, None)
            conn = self._conns.pop(worker_id, None)
            self._ready.discard(worker_id)
            self._ready_changed.notify_all()
            self.worker_tenant_versions.pop(worker_id, None)
            restarts = self._restarts.get(worker_id, 0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
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

    def _unlink(self, segment: Any) -> None:
        """Retire ``segment``: no worker maps it past its attach, so its
        name and pages go now."""
        with self._lock:
            self._acks.pop(segment.name, None)
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


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
    segments: dict[str, str],
    primary: str,
    builder_persist: dict[str, Any] | None,
) -> None:
    """Entry point of one serving process (must stay picklable for spawn)."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates shutdown
    try:
        asyncio.run(
            _Worker(worker_id, conn, config, segments, primary, builder_persist).run()
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
        segments: dict[str, str],
        primary: str,
        builder_persist: dict[str, Any] | None,
    ):
        self.worker_id = worker_id
        self.conn = conn
        self.config = config
        #: tenant -> segment name to attach at start-up
        self.segments = segments
        self.primary = primary
        #: the parent's persist counters as of spawn; every ``persist``
        #: message replaces the service's copy
        self._builder_persist = builder_persist
        self.service: ReasoningService | None = None
        self.registry = GraphRegistry()
        self._pending: dict[int, asyncio.Future] = {}
        self._seq = 0
        self._stop = asyncio.Event()
        self._send_lock = threading.Lock()

    def _send(self, message: dict[str, Any]) -> None:
        with self._send_lock:
            _try_send(self.conn, message)

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        # start-up is one publish per initial segment — primary first:
        # the first bound tenant becomes the registry alias, which is
        # what un-prefixed routes resolve to
        for tenant in [self.primary] + sorted(set(self.segments) - {self.primary}):
            await self._on_publish(tenant, self.segments[tenant])
        service = ReasoningService(
            config=self.config, worker_id=self.worker_id, registry=self.registry
        )
        service.mutation_forwarder = self._forward_mutation
        service.admin_forwarder = self._forward_admin
        service.cluster_metrics_provider = self._cluster_metrics
        service.builder_persist = self._builder_persist
        self.service = service
        await service.start(reuse_port=True)

        queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        reader = threading.Thread(
            target=self._pump_control, args=(loop, queue), daemon=True
        )
        reader.start()
        self._send({"op": "ready", "worker": self.worker_id, "pid": os.getpid()})
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
        assert self.service is not None
        if op == "publish":
            await self._on_publish(message["tenant"], message["name"])
        elif op == "persist":
            self.service.builder_persist = message["stats"]
        elif op == "retire_tenant":
            self._on_retire_tenant(message["tenant"])
        elif op == "drain":
            await self.service.drain(message.get("timeout_s", 10.0))
            self._stop.set()
        elif op == "stop":
            self._stop.set()
        elif op == "metrics?":
            self._send(
                {
                    "op": "metrics",
                    "id": message.get("id"),
                    "payload": self.service.metrics.to_dict(),
                }
            )
        elif op == "result":
            future = self._pending.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result(message)

    async def _on_publish(self, tenant: str, name: str) -> None:
        """Attach segment ``name`` and swap it in as ``tenant``'s version.

        The swapped-out snapshot is retired by dropping this worker's
        reference to it: reads in flight keep theirs.
        """
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            snapshot = await loop.run_in_executor(None, shm_codec.attach_snapshot, name)
        except Exception as exc:  # noqa: BLE001 - stay on the old version
            logger.exception("worker %d failed to attach segment %s", self.worker_id, name)
            self._send(
                {
                    "op": "attach_failed",
                    "worker": self.worker_id,
                    "name": name,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            return
        attach_s = time.perf_counter() - started
        binding = self.registry.peek(tenant)
        if binding is None:
            # unknown to this worker (start-up, or created since): bind fresh
            binding = self.registry.adopt(tenant, SnapshotManager())
        binding.manager.publish(snapshot)  # the swap: one reference store
        self._send(
            {
                "op": "attached",
                "worker": self.worker_id,
                "name": name,
                "tenant": tenant,
                "version": snapshot.version,
                "attach_s": attach_s,
                "swap_pause_s": binding.manager.last_swap_pause_s,
            }
        )

    def _on_retire_tenant(self, tenant: str) -> None:
        try:
            self.registry.drop(tenant)
        except UnknownTenantError:
            return
        if self.service is not None:
            # a same-named tenant created later restarts at version 1
            self.service.cache.evict_tenant(tenant)
        self._send(
            {"op": "retired_tenant", "worker": self.worker_id, "tenant": tenant}
        )

    # -- forwarded endpoints -------------------------------------------

    async def _forward(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request to the parent and await its ``result``."""
        self._seq += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[self._seq] = future
        self._send({**message, "id": self._seq, "worker": self.worker_id})
        return await future

    async def _forward_mutation(self, tenant: str, deltas: list[Any]) -> tuple[int, Any]:
        reply = await self._forward({"op": "mutate", "tenant": tenant, "deltas": deltas})
        return reply.get("status", 500), reply.get("payload")

    async def _forward_admin(self, action: str, tenant: str) -> tuple[int, Any]:
        reply = await self._forward({"op": "admin", "action": action, "tenant": tenant})
        return reply.get("status", 500), reply.get("payload")

    async def _cluster_metrics(self) -> Any:
        return (await self._forward({"op": "metrics_cluster?"})).get("payload")
