"""SO_REUSEPORT worker-pool serving over shared-memory snapshots.

One process cannot outrun its GIL, so scale-out runs N copies of the
asyncio server (``repro.service.server``) as separate processes, all
listening on the **same** port via ``SO_REUSEPORT`` — the kernel
load-balances accepted connections across the listening sockets, no
userspace proxy involved.  The parent builds every version once and
hands it over as one shared-memory segment (``repro.service.shm``): the
base graph plus what reasoning derived, which each worker decodes into
a snapshot through the tail a store attach runs too.

Topology::

    parent (ServicePool)                     worker i (x N)
    ------------------------                 -----------------------------
    owns the GraphRegistry of                decodes each segment it is sent,
    builders, hands every new                binds each to its tenant in a
    version off as a segment,  == Pipe ==>   registry of bare managers,
    supervises workers,        <== Pipe ==   runs a ReasoningService with
    serializes mutations and                 reuse_port=True, forwards
    tenant admin, merges                     mutations, tenant admin and
    metrics                                  cluster metrics

One protocol runs over each pipe, both ways: a request that wants an
answer carries an ``id`` and gets exactly one ``{"op": "reply", "id",
"status", "payload"}`` (``status`` an HTTP code, an error's payload
``{"error": ...}``).  The parent's :meth:`ServicePool._call` sends a
request to every live worker and returns once each worker process it
was sent to replied or died: a publish, a tenant retirement and the
metrics poll are such calls.  A worker forwards mutations, tenant admin
and ``/metrics?scope=cluster`` the same way.

The parent is the **single builder** for every tenant, and it builds
through the same code as the single-process service: its
:class:`GraphRegistry` binds each tenant's manager, builder and
:class:`~repro.service.updates.GraphUpdater`, and a mutation batch or a
tenant creation runs that updater's write path (stage -> build ->
publish -> hand-off -> persist) one at a time under the pool's mutate
lock.  The pool contributes only the **hand-off**: seal the new version
into a fresh segment (its name carries the tenant, for the leak checks)
and call ``publish`` on the fleet.  Workers attach it and swap **that
tenant's** :class:`SnapshotManager` atomically (readers in flight keep
the old snapshot via their reference — no torn reads; other tenants'
managers are untouched).  The parent changes its segment set under its
lock before it sends, so a worker spawned after a call was sent starts
from the state the call installs and is not waited for.

Retiring a segment is unlinking it: a tenant's previous segment once its
successor's publish returned (or failed), a deleted tenant's segment
before ``retire_tenant`` is called.  A worker maps a segment only while
attaching it and retires a version by dropping its reference.  Tenant
admin from any worker (``PUT/DELETE /t/{tenant}``) is forwarded to the
parent and answered once every worker serves the new tenant set.

Failure handling: the parent restarts a crashed worker against the
current segment set (bounded by ``RESTART_LIMIT``); an error reply (a
worker that cannot attach a segment) fails its call at once;
``SIGTERM`` drains — workers stop accepting, finish in-flight requests,
and exit before the parent unlinks the segments.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import logging
import multiprocessing
import multiprocessing.connection
import os
import socket
import threading
import time
from typing import Any, Sequence

from ..graph.company_graph import CompanyGraph
from . import shm as shm_codec
from .registry import GraphRegistry, TenantError, UnknownTenantError, validate_tenant
from .server import Metrics, ReasoningService, ServiceConfig
from .snapshot import DEFAULT_TENANT, Snapshot, SnapshotManager
from .updates import MutationError

logger = logging.getLogger(__name__)

#: segment-name sequence, process-wide: two pools in one process seal the
#: same (tenant, version) under distinct names
_SEGMENT_SEQ = itertools.count(1)


#: restarts allowed per worker slot before the slot is abandoned
RESTART_LIMIT = 3
#: how long the parent waits for every worker to attach a new version
PUBLISH_TIMEOUT_S = 60.0
#: how long the parent waits for the initial worker fleet to come up
START_TIMEOUT_S = 120.0
#: graceful-drain budget on stop/SIGTERM
DRAIN_TIMEOUT_S = 10.0
#: multiprocessing start method; fork is fastest on Linux, and all
#: worker arguments are picklable so spawn works where fork doesn't
START_METHOD = "fork"


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
        self._ctx = multiprocessing.get_context(START_METHOD)
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self._conns: dict[int, multiprocessing.connection.Connection] = {}
        self._restarts: dict[int, int] = {}
        self.restarts = 0
        #: one lock per worker slot: sends from two threads never interleave
        self._send_locks: dict[int, threading.Lock] = collections.defaultdict(
            threading.Lock
        )
        #: tenant -> creator handle of the segment last handed to the
        #: fleet, which a (re)started worker attaches
        self._segments: dict[str, Any] = {}
        #: call id -> {worker: its reply} while the call waits
        self._calls: dict[int, dict[int, dict[str, Any]]] = {}
        self._call_ids = itertools.count(1)
        #: workers that accept connections
        self._ready: set[int] = set()
        #: slots given up after ``RESTART_LIMIT`` restarts
        self._abandoned: set[int] = set()
        #: worker -> {tenant: version} across every tenant it serves
        self.worker_tenant_versions: dict[int, dict[str, int]] = {}
        #: worker -> (attach_s, swap_pause_s) of its last publish swap
        self.last_swap: dict[int, dict[str, float]] = {}
        self._lock = threading.RLock()
        #: notified when a worker turns ready, replies, dies or its slot
        #: is abandoned (``start`` and ``_call`` wait on it)
        self._changed = threading.Condition(self._lock)
        self._mutate_lock = threading.Lock()
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
        for name, binding in self.registry.items():
            self._seal(binding.manager.current, name)
        self._reserve_port()
        for worker_id in range(self.requested_workers):
            self._spawn(worker_id)
        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        self._supervisor.start()
        # an abandoned slot never comes up: stop waiting at the first one
        with self._changed:
            self._changed.wait_for(
                lambda: len(self._ready) == self.requested_workers or self._abandoned,
                timeout=START_TIMEOUT_S,
            )
            ready, abandoned = len(self._ready), sorted(self._abandoned)
        if ready == self.requested_workers:
            return self
        self.stop(drain=False)
        if abandoned:
            raise PoolError(
                f"only {ready}/{self.requested_workers} workers came up: "
                f"worker(s) {', '.join(map(str, abandoned))} failed "
                f"{RESTART_LIMIT + 1} times and were abandoned"
            )
        raise PoolError(
            f"only {ready}/{self.requested_workers} workers came up "
            f"within {START_TIMEOUT_S}s"
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
        persist = self.registry.persist.stats() if self.registry.persist else None
        # read the segment set and join the fleet in one critical section:
        # a call that listed its workers before does not wait for this
        # one, which starts from the segment set that call installed
        with self._lock:
            segments = {tenant: segment.name for tenant, segment in self._segments.items()}
            proc = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, child_conn, config, segments, self.primary, persist),
                name=f"repro-serve-{worker_id}",
                daemon=True,
            )
            proc.start()
            self._procs[worker_id] = proc
            self._conns[worker_id] = parent_conn
        child_conn.close()

    def _send(self, worker_id: int, message: dict[str, Any]) -> None:
        """One message to one worker; a dead pipe is the supervisor's."""
        with self._lock:
            conn = self._conns.get(worker_id)
            lock = self._send_locks[worker_id]
        if conn is not None:
            with lock:  # a message over PIPE_BUF is written in pieces
                try:
                    conn.send(message)
                except OSError:
                    pass

    def _broadcast(self, message: dict[str, Any]) -> None:
        with self._lock:
            workers = list(self._conns)
        for worker_id in workers:
            self._send(worker_id, message)

    def _call(
        self, message: dict[str, Any], timeout_s: float, partial: bool = False
    ) -> dict[int, Any]:
        """Send ``message`` to every live worker; return ``{worker:
        payload}`` once each process it was sent to replied or died.

        The first error reply raises :class:`PoolError`, and so does the
        deadline unless ``partial`` (the metrics poll answers with what
        it has).  A process spawned after the send is not waited for.
        """
        with self._lock:
            call_id = next(self._call_ids)
            replies = self._calls[call_id] = {}
            sent = {w: self._procs[w] for w in self.live_workers()}
        what = message["op"] + (f" of tenant {message['tenant']}" if "tenant" in message else "")
        deadline = time.monotonic() + timeout_s
        try:
            for worker_id in sent:
                self._send(worker_id, {**message, "id": call_id})
            with self._changed:
                while True:
                    for worker_id, reply in sorted(replies.items()):
                        if reply["status"] != 200:
                            raise PoolError(
                                f"{what} failed on worker {worker_id}: "
                                f"{reply['payload']['error']}"
                            )
                    waiting = sorted(
                        w for w, proc in sent.items()
                        if w not in replies and self._procs.get(w) is proc
                    )
                    remaining = deadline - time.monotonic()
                    if not waiting or remaining <= 0:
                        break
                    self._changed.wait(remaining)
        finally:
            with self._lock:
                self._calls.pop(call_id, None)
        if waiting and not partial:
            raise PoolError(
                f"{what} reached only workers {sorted(replies)} within {timeout_s}s"
            )
        return {w: reply["payload"] for w, reply in sorted(replies.items())}

    def stop(self, drain: bool = True) -> None:
        """Shut the pool down; with ``drain`` workers finish in-flight
        requests (bounded by ``DRAIN_TIMEOUT_S``) before exiting."""
        self._stopping.set()
        if drain:
            self._broadcast({"op": "drain", "timeout_s": DRAIN_TIMEOUT_S})
            deadline = time.monotonic() + DRAIN_TIMEOUT_S + 2.0
            for proc in list(self._procs.values()):
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
        self._broadcast({"op": "stop"})
        for proc in list(self._procs.values()):
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        with self._changed:
            for conn in self._conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
            self._conns.clear()
            self._procs.clear()
            self._changed.notify_all()  # a call in flight stops waiting
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
                attached = sorted(
                    w for w, versions in self.worker_tenant_versions.items()
                    if versions.get(name) == snapshot.version
                )
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
        segment, call ``publish`` until every live worker swapped, then
        unlink the segment it replaced."""
        previous = self._seal(snapshot, tenant)
        try:
            with self._lock:
                name = self._segments[tenant].name
            replies = self._call(
                {"op": "publish", "tenant": tenant, "name": name}, PUBLISH_TIMEOUT_S
            )
        finally:
            if previous is not None:
                self._unlink(previous)
        with self._lock:
            for worker_id, attached in replies.items():
                self._record_attach(worker_id, attached)

    def _record_attach(self, worker_id: int, attached: dict[str, Any]) -> None:
        """Note a worker's attach (a publish reply, or start-up's)."""
        if worker_id in self._conns:  # else it died since
            versions = self.worker_tenant_versions.setdefault(worker_id, {})
            versions[attached["tenant"]] = attached["version"]
            self.last_swap[worker_id] = {
                "attach_s": attached["attach_s"],
                "swap_pause_s": attached["swap_pause_s"],
            }

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
        """Drop ``tenant`` fleet-wide; returns once every worker answers
        its reads with 404.  Its segment goes first, so a worker spawned
        meanwhile starts without it; reads in flight keep their snapshot."""
        with self._lock:
            segment = self._segments.pop(tenant, None)
        if segment is not None:
            self._unlink(segment)
        self._call({"op": "retire_tenant", "tenant": tenant}, PUBLISH_TIMEOUT_S)
        with self._lock:
            for versions in self.worker_tenant_versions.values():
                versions.pop(tenant, None)

    # -- metrics aggregation -------------------------------------------

    def cluster_metrics(self, timeout_s: float = 5.0) -> dict[str, Any]:
        """Merged per-worker counters + supervisor state (the payload of
        ``GET /metrics?scope=cluster`` on any worker)."""
        replies = self._call({"op": "metrics"}, timeout_s, partial=True)
        with self._lock:
            worker_tenant_versions = {
                w: dict(v) for w, v in self.worker_tenant_versions.items()
            }
            last_swap = {w: dict(s) for w, s in self.last_swap.items()}
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
            "merged": Metrics.merge(list(replies.values())),
            "per_worker": replies,
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
        if op == "reply":
            with self._changed:
                replies = self._calls.get(message["id"])
                if replies is not None:  # else its call already returned
                    replies[worker_id] = message
                    self._changed.notify_all()
        elif op == "ready":
            with self._changed:
                for attached in message["attached"]:
                    self._record_attach(worker_id, attached)
                self._ready.add(worker_id)
                self._changed.notify_all()
        else:
            # a forwarded request blocks on the fleet, which this thread
            # must keep serving
            threading.Thread(
                target=self._answer, args=(worker_id, message), daemon=True
            ).start()

    def _answer(self, worker_id: int, message: dict[str, Any]) -> None:
        """Reply to a worker's forwarded mutation, tenant admin or cluster
        metrics request; the worker always gets a reply."""
        op, tenant = message["op"], message.get("tenant")
        try:
            if op == "mutate":
                status, payload = 200, self.mutate(message["deltas"], tenant)
            elif op == "create_tenant":
                status, payload = self.create_tenant(tenant)
            elif op == "delete_tenant":
                status, payload = self.delete_tenant(tenant)
            else:  # cluster_metrics
                status, payload = 200, self.cluster_metrics()
        except (MutationError, TenantError) as exc:
            status, payload = 400, {"error": str(exc)}
        except UnknownTenantError as exc:
            status, payload = 404, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - worker must get an answer
            logger.exception("forwarded %s failed", op)
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._send(
            worker_id,
            {"op": "reply", "id": message["id"], "status": status, "payload": payload},
        )

    def _on_worker_gone(self, worker_id: int) -> None:
        with self._changed:
            if worker_id not in self._procs and worker_id not in self._conns:
                return  # sentinel + pipe EOF both fired; already handled
            proc = self._procs.pop(worker_id, None)
            conn = self._conns.pop(worker_id, None)
            self._ready.discard(worker_id)
            self._changed.notify_all()
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
        if restarts >= RESTART_LIMIT:
            logger.error(
                "worker %d exceeded restart limit (%d); slot abandoned",
                worker_id,
                RESTART_LIMIT,
            )
            with self._changed:
                self._abandoned.add(worker_id)
                self._changed.notify_all()
            return
        logger.warning("worker %d died; restarting", worker_id)
        with self._lock:
            self._restarts[worker_id] = restarts + 1
            self.restarts += 1
        self._spawn(worker_id)

    def _unlink(self, segment: Any) -> None:
        """Retire ``segment``: no worker maps it past its attach, so its
        name and pages go now."""
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


# ======================================================================
# worker side
# ======================================================================


def _worker_main(
    worker_id: int, conn: multiprocessing.connection.Connection, *args: Any
) -> None:
    """Entry point of one serving process (must stay picklable for spawn);
    ``args`` are the rest of :class:`_Worker`'s."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates shutdown
    try:
        asyncio.run(_Worker(worker_id, conn, *args).run())
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
        #: id -> the forwarded request awaiting its reply
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._stop = asyncio.Event()
        self._send_lock = threading.Lock()

    def _send(self, message: dict[str, Any]) -> None:
        with self._send_lock:
            try:
                self.conn.send(message)
            except OSError:
                pass

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        # start-up attaches every initial segment — primary first: the
        # first bound tenant becomes the registry alias, which is what
        # un-prefixed routes resolve to
        attached = []
        for tenant in [self.primary] + sorted(set(self.segments) - {self.primary}):
            try:
                attached.append(await self._attach(tenant, self.segments[tenant]))
            except Exception:  # noqa: BLE001 - e.g. a tenant deleted since the spawn
                logger.exception("worker %d failed to attach %s", self.worker_id, tenant)
        service = ReasoningService(
            config=self.config, worker_id=self.worker_id, registry=self.registry
        )
        service.forward = self._forward
        service.builder_persist = self._builder_persist
        self.service = service
        await service.start(reuse_port=True)

        queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        reader = threading.Thread(
            target=self._pump_control, args=(loop, queue), daemon=True
        )
        reader.start()
        self._send({"op": "ready", "attached": attached})
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
        if op == "reply":
            future = self._pending.pop(message["id"], None)
            if future is not None and not future.done():
                future.set_result((message["status"], message["payload"]))
        elif op == "persist":
            self.service.builder_persist = message["stats"]
        elif op == "drain":
            await self.service.drain(message.get("timeout_s", 10.0))
            self._stop.set()
        elif op == "stop":
            self._stop.set()
        else:  # a call: exactly one reply
            status, payload = 200, None
            try:
                if op == "publish":
                    payload = await self._attach(message["tenant"], message["name"])
                elif op == "retire_tenant":
                    self._retire(message["tenant"])
                else:  # metrics
                    payload = self.service.metrics.to_dict()
            except Exception as exc:  # noqa: BLE001 - stay on the old version
                logger.exception("worker %d failed %s", self.worker_id, op)
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self._send(
                {"op": "reply", "id": message["id"], "status": status, "payload": payload}
            )

    async def _attach(self, tenant: str, name: str) -> dict[str, Any]:
        """Attach segment ``name`` and swap it in as ``tenant``'s version.

        The swapped-out snapshot is retired by dropping this worker's
        reference to it: reads in flight keep theirs.
        """
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        snapshot = await loop.run_in_executor(None, shm_codec.attach_snapshot, name)
        attach_s = time.perf_counter() - started
        binding = self.registry.peek(tenant)
        if binding is None:
            # unknown to this worker (start-up, or created since): bind fresh
            binding = self.registry.adopt(tenant, SnapshotManager())
        binding.manager.publish(snapshot)  # the swap: one reference store
        return {
            "tenant": tenant,
            "version": snapshot.version,
            "attach_s": attach_s,
            "swap_pause_s": binding.manager.last_swap_pause_s,
        }

    def _retire(self, tenant: str) -> None:
        try:
            self.registry.drop(tenant)
        except UnknownTenantError:
            return  # never bound here, e.g. spawned after its segment went
        # a same-named tenant created later restarts at version 1
        self.service.cache.evict_tenant(tenant)

    async def _forward(self, message: dict[str, Any]) -> tuple[int, Any]:
        """The service's ``forward`` hook: send one request to the parent
        and await its reply as ``(status, payload)``."""
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._send({**message, "id": request_id})
        return await future
