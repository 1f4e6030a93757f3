"""Dependency-free asyncio HTTP/1.1 JSON server over KG snapshots.

The serving path, per request::

    accept -> admission control -> route (tenant, endpoint) -> LRU ->
    single-flight / micro-batch -> snapshot read + encode (executor
    thread) -> LRU of bodies

The cache holds response bodies, not payload objects: a cacheable read
is encoded to JSON once, in the executor thread that computed it, and a
hit writes the stored bytes to the socket as they are.

Admission control keeps the event loop honest under overload: at most
``max_concurrency`` requests execute at once (semaphore); up to
``max_queue`` more may wait; anything beyond is rejected immediately
with **429**.  Every admitted request runs under a deadline
(``request_timeout_s``); expiry returns **504** while the executor
thread finishes in the background (its result still lands in the cache
for the next caller).  ``/healthz`` and ``/metrics`` bypass admission so
the service stays observable while saturated.

Multi-tenancy: the service serves every tenant bound in its
:class:`~repro.service.registry.GraphRegistry`.  Reasoning endpoints are
reachable both un-prefixed (they resolve to the *alias* tenant — the one
the service was seeded with, ``default`` unless renamed) and under
``/t/{tenant}/...``.  Tenant admin lives at ``/t`` / ``/t/{tenant}``.

Endpoints
---------

==============================  ==============================================
``GET /control``                control pairs; ``?source=&threshold=``
``GET /close-links``            close-link pairs; ``?threshold=``
``GET /ubo/{id}``               beneficial owners of a company; ``?threshold=``
``GET /family``                 detected personal links
``GET /neighbors/{id}``         a node with its incident edges; ``?depth=&label=``
``GET /stats``                  snapshot statistics (+ tenant, persist health)
``GET /healthz``                liveness + served snapshot version
``GET /metrics``                counters, histograms, per-tenant snapshot stats
``POST /mutations``             apply deltas, re-augment in background; ``?wait=1``
``GET /t``                      list tenants
``GET /t/{tenant}``             one tenant's info
``PUT /t/{tenant}``             create a tenant (idempotent)
``DELETE /t/{tenant}``          drop a tenant (the alias tenant is protected)
``/t/{tenant}/<reasoning>``     any reasoning endpoint, scoped to ``tenant``
==============================  ==============================================

Every read carries the snapshot version it was answered from, so clients
can observe exactly when a mutation's new version starts serving.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence
from urllib.parse import parse_qsl, unquote, urlsplit

from ..graph.company_graph import COMPANY, CompanyGraph
from ..graph.property_graph import GraphError
from ..linkage.bayes import BayesianLinkClassifier
from ..telemetry import NULL_TRACER
from .cache import MicroBatcher, ReasoningCache
from .registry import (
    GraphRegistry,
    TenantError,
    UnknownTenantError,
    validate_tenant,
)
from .snapshot import (
    DEFAULT_TENANT,
    Snapshot,
    SnapshotBuilder,
    SnapshotConfig,
    SnapshotManager,
    snapshot_key,
)
from .updates import GraphUpdater, MutationError

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Endpoint names used for routing and as metrics keys.
_ENDPOINTS = (
    "control",
    "close-links",
    "ubo",
    "family",
    "neighbors",
    "stats",
    "healthz",
    "metrics",
    "mutations",
    "tenants",
)

#: Endpoints that may appear under a ``/t/{tenant}/`` prefix.  ``healthz``
#: and ``metrics`` stay process-level: one fleet, one liveness signal.
_TENANT_ENDPOINTS = (
    "control",
    "close-links",
    "ubo",
    "family",
    "neighbors",
    "stats",
    "mutations",
)


def _route(path: str) -> tuple[str | None, str, list[str]]:
    """Split a request path into ``(tenant, endpoint, rest)``.

    ``tenant`` is ``None`` for un-prefixed routes (the caller resolves
    them to the registry alias) and for ``GET /t`` (the tenant listing,
    endpoint ``"tenants"``).  ``/t/{name}`` routes to the ``"tenants"``
    admin endpoint with the tenant set; ``/t/{name}/<ep>/...`` routes to
    ``<ep>`` with the tenant set.
    """
    segments = [unquote(s) for s in path.strip("/").split("/") if s]
    if not segments:
        return None, "", []
    if segments[0] == "t":
        if len(segments) == 1:
            return None, "tenants", []
        if len(segments) == 2:
            return segments[1], "tenants", []
        return segments[1], segments[2], segments[3:]
    return None, segments[0], segments[1:]


@dataclass
class ServiceConfig:
    """Admission-control and caching knobs of the server."""

    host: str = "127.0.0.1"
    port: int = 8707
    #: requests executing at once; more wait on the semaphore
    max_concurrency: int = 32
    #: requests allowed to wait; beyond this the server answers 429
    max_queue: int = 128
    #: per-request deadline; expiry answers 504
    request_timeout_s: float = 30.0
    #: LRU entries.  Point lookups have no batching knob: the ``/ubo``
    #: misses of one loop turn share one batch of at most
    #: ``max_concurrency`` keys
    cache_capacity: int = 1024
    max_body_bytes: int = 1 << 20


class HttpError(Exception):
    """An error with a definite HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class Metrics:
    """In-process counters exported at ``/metrics``.

    Latencies land in fixed buckets (milliseconds, cumulative-friendly
    layout: ``counts[i]`` is the number of requests whose latency fell in
    ``(BUCKETS_MS[i-1], BUCKETS_MS[i]]``, with a final overflow bucket).
    """

    BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0)

    def __init__(self) -> None:
        self.started_at = time.time()
        self.requests: dict[str, int] = defaultdict(int)
        self.statuses: dict[str, int] = defaultdict(int)
        self.latency_sum_s: dict[str, float] = defaultdict(float)
        self.histogram: dict[str, list[int]] = {}
        #: requests per tenant (reasoning endpoints only) — the tenant
        #: dimension of the surface, merged across workers like any
        #: other counter
        self.tenant_requests: dict[str, int] = defaultdict(int)
        self.in_flight = 0
        self.queued = 0
        self.rejected_429 = 0
        self.timeouts_504 = 0
        self.bypass_requests = 0

    def observe(
        self,
        endpoint: str,
        seconds: float,
        status: int,
        bypass: bool = False,
        tenant: str | None = None,
    ) -> None:
        """Record one served request.

        ``bypass`` requests (``/healthz``, ``/metrics`` — they skip
        admission control) are counted but kept out of the latency sums
        and histograms: a monitoring poller scraping every second would
        otherwise dominate — and flatter — the latency distribution.
        """
        self.requests[endpoint] += 1
        self.statuses[f"{status // 100}xx"] += 1
        if tenant is not None:
            self.tenant_requests[tenant] += 1
        if bypass:
            self.bypass_requests += 1
            return
        self.latency_sum_s[endpoint] += seconds
        counts = self.histogram.setdefault(endpoint, [0] * (len(self.BUCKETS_MS) + 1))
        counts[bisect.bisect_left(self.BUCKETS_MS, seconds * 1000.0)] += 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "in_flight": self.in_flight,
            "queued": self.queued,
            "rejected_429": self.rejected_429,
            "timeouts_504": self.timeouts_504,
            "bypass_requests": self.bypass_requests,
            "requests": dict(self.requests),
            "statuses": dict(self.statuses),
            "tenant_requests": dict(self.tenant_requests),
            "latency_sum_s": {k: round(v, 6) for k, v in self.latency_sum_s.items()},
            "latency_buckets_ms": list(self.BUCKETS_MS),
            "latency_histogram": {k: list(v) for k, v in self.histogram.items()},
        }

    @classmethod
    def merge(cls, payloads: Sequence[dict[str, Any]]) -> dict[str, Any]:
        """Fold per-worker ``to_dict`` payloads into one cluster view.

        Counters and latency sums add; histograms add bucket-wise;
        ``uptime_s`` takes the oldest worker (the cluster has been up at
        least that long).
        """
        merged: dict[str, Any] = {
            "uptime_s": 0.0,
            "in_flight": 0,
            "queued": 0,
            "rejected_429": 0,
            "timeouts_504": 0,
            "bypass_requests": 0,
            "requests": {},
            "statuses": {},
            "tenant_requests": {},
            "latency_sum_s": {},
            "latency_buckets_ms": list(cls.BUCKETS_MS),
            "latency_histogram": {},
        }
        for payload in payloads:
            merged["uptime_s"] = max(merged["uptime_s"], payload.get("uptime_s", 0.0))
            for counter in (
                "in_flight",
                "queued",
                "rejected_429",
                "timeouts_504",
                "bypass_requests",
            ):
                merged[counter] += payload.get(counter, 0)
            for field in ("requests", "statuses", "tenant_requests", "latency_sum_s"):
                for key, value in payload.get(field, {}).items():
                    merged[field][key] = merged[field].get(key, 0) + value
            for key, counts in payload.get("latency_histogram", {}).items():
                into = merged["latency_histogram"].setdefault(key, [0] * len(counts))
                for i, count in enumerate(counts):
                    into[i] += count
        merged["latency_sum_s"] = {
            k: round(v, 6) for k, v in merged["latency_sum_s"].items()
        }
        return merged


class ReasoningService:
    """The HTTP reasoning API over a :class:`GraphRegistry` of tenants.

    The historical single-graph constructor still works: a bare
    ``manager`` (plus optional build chain) is adopted into a fresh
    registry under ``tenant`` (``default`` unless named), and the
    ``manager`` / ``updater`` attributes keep resolving to that alias
    tenant's binding.  Passing ``registry`` serves every tenant bound in
    it — one cache, one admission controller, disjoint keyspaces.
    """

    def __init__(
        self,
        manager: SnapshotManager | None = None,
        builder: SnapshotBuilder | None = None,
        base_graph: CompanyGraph | None = None,
        config: ServiceConfig | None = None,
        tracer=None,
        worker_id: int | None = None,
        registry: GraphRegistry | None = None,
        tenant: str = DEFAULT_TENANT,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: set under ``repro serve --workers N``; None when single-process
        self.worker_id = worker_id
        if registry is None:
            registry = GraphRegistry(tracer=self.tracer)
        self.registry = registry
        if manager is not None:
            self.registry.adopt(tenant, manager, builder=builder, base_graph=base_graph)
        elif len(self.registry) == 0:
            raise ValueError("service needs a manager or a non-empty registry")
        #: pool hook — routes ``POST /mutations`` to the builder process
        #: when this service has no local updater (read-only worker);
        #: called as ``(tenant, deltas)`` and answers once the fleet
        #: serves the new version (``?wait`` has nothing to choose)
        self.mutation_forwarder: (
            Callable[[str, list[Any]], Awaitable[tuple[int, Any]]] | None
        ) = None
        #: pool hook — routes tenant create/delete to the parent so the
        #: whole fleet (not one worker) gains or drops the tenant;
        #: called as ``(action, tenant)``
        self.admin_forwarder: (
            Callable[[str, str], Awaitable[tuple[int, Any]]] | None
        ) = None
        #: pool hook — answers ``GET /metrics?scope=cluster`` with the
        #: parent's merged per-worker counters
        self.cluster_metrics_provider: Callable[[], Awaitable[Any]] | None = None
        #: pool hook — the builder process's ``Persister.stats()`` as of
        #: its last persist, served as the ``persist`` section of ``/stats``
        self.builder_persist: dict[str, Any] | None = None
        self.metrics = Metrics()
        self.cache = ReasoningCache(self.config.cache_capacity)
        self._semaphore = asyncio.Semaphore(self.config.max_concurrency)
        self._admin_lock = asyncio.Lock()
        self._ubo_batcher = MicroBatcher(self._ubo_batch)
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    @property
    def manager(self) -> SnapshotManager:
        """The alias (un-prefixed-route) tenant's snapshot manager."""
        return self.registry.get(self.registry.alias).manager

    @property
    def updater(self) -> GraphUpdater | None:
        """The alias tenant's updater, if this process builds for it."""
        binding = self.registry.peek(self.registry.alias)
        return binding.updater if binding is not None else None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self, reuse_port: bool = False) -> asyncio.AbstractServer:
        """Bind and start accepting; resolves ``self.port`` (for port 0).

        With ``reuse_port`` the socket is bound ``SO_REUSEPORT`` so N
        worker processes can each listen on the same address and let the
        kernel load-balance accepted connections between them.
        """
        self._server = await asyncio.start_server(
            self.handle_connection,
            self.config.host,
            self.config.port,
            reuse_port=reuse_port or None,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def run(self, ready: Callable[["ReasoningService"], None] | None = None) -> None:
        server = await self.start()
        if ready is not None:
            ready(self)
        async with server:
            await server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, timeout_s: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, then wait for in-flight and
        queued requests to finish.  Returns whether the service went
        fully idle inside ``timeout_s``."""
        if self._server is not None:
            self._server.close()  # wait_closed() would wait on keep-alives
            self._server = None
        deadline = time.monotonic() + timeout_s
        while self.metrics.in_flight > 0 or self.metrics.queued > 0:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    # ------------------------------------------------------------------
    # connection handling (HTTP/1.1, keep-alive)
    # ------------------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # nothing but the loop shutting down (SIGINT) cancels a
            # connection's task; ending it normally keeps asyncio's stream
            # callback (``task.exception()``, unguarded before 3.12) from
            # writing a traceback to stderr per connection still open
            pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HttpError as exc:
                    await self._write(
                        writer, exc.status, _encode({"error": exc.message}), False
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                split = urlsplit(target)
                query = dict(parse_qsl(split.query))
                _endpoint, status, response = await self.handle_request(
                    method, split.path, query, body
                )
                await self._write(writer, status, response, keep_alive)
                if not keep_alive:
                    break
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").strip().split(" ")
        if len(parts) != 3:
            raise HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, sep, value = header.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length_header = headers.get("content-length")
        if length_header:
            try:
                length = int(length_header)
            except ValueError:
                raise HttpError(400, "bad Content-Length") from None
            if length < 0 or length > self.config.max_body_bytes:
                raise HttpError(413, f"body exceeds {self.config.max_body_bytes} bytes")
            if length:
                body = await reader.readexactly(length)
        return method.upper(), target, headers, body

    async def _write(
        self, writer: asyncio.StreamWriter, status: int, body: bytes, keep_alive: bool
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # request handling: admission -> routing -> payload
    # ------------------------------------------------------------------

    async def handle_request(
        self, method: str, path: str, query: dict[str, str], body: bytes
    ) -> tuple[str, int, bytes]:
        """Returns ``(endpoint, status, body)`` — the JSON response body,
        as cached or encoded once here; also the entry point the tests
        drive directly."""
        tenant, head, rest = _route(path)
        endpoint = head if head in _ENDPOINTS else "unknown"
        started = time.perf_counter()
        bypass = endpoint in ("healthz", "metrics")
        with self.tracer.span(f"http.{endpoint}"):
            try:
                if bypass:
                    # observability must answer even when saturated
                    status, payload = await self._dispatch(
                        method, tenant, head, rest, query, body
                    )
                else:
                    status, payload = await self._admitted(
                        method, tenant, head, rest, query, body
                    )
            except HttpError as exc:
                status, payload = exc.status, {"error": exc.message}
            except (MutationError, TenantError) as exc:
                status, payload = 400, {"error": str(exc)}
            except UnknownTenantError as exc:
                status, payload = 404, {"error": str(exc)}
            except GraphError as exc:
                status, payload = 404, {"error": str(exc)}
            except Exception as exc:  # never leak a traceback to the socket
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            body = payload if isinstance(payload, bytes) else _encode(payload)
        label = None
        if endpoint in _TENANT_ENDPOINTS:
            label = tenant if tenant is not None else self.registry.alias
        self.metrics.observe(
            endpoint,
            time.perf_counter() - started,
            status,
            bypass=bypass,
            tenant=label,
        )
        return endpoint, status, body

    async def _admitted(
        self,
        method: str,
        tenant: str | None,
        head: str,
        rest: list[str],
        query: dict[str, str],
        body: bytes,
    ) -> tuple[int, Any]:
        metrics = self.metrics
        config = self.config
        if (
            metrics.in_flight >= config.max_concurrency
            and metrics.queued >= config.max_queue
        ):
            metrics.rejected_429 += 1
            return 429, {
                "error": "server saturated",
                "in_flight": metrics.in_flight,
                "queued": metrics.queued,
            }
        metrics.queued += 1
        try:
            await self._semaphore.acquire()
        finally:
            metrics.queued -= 1
        metrics.in_flight += 1
        try:
            return await asyncio.wait_for(
                self._dispatch(method, tenant, head, rest, query, body),
                config.request_timeout_s,
            )
        except asyncio.TimeoutError:
            metrics.timeouts_504 += 1
            return 504, {
                "error": "deadline exceeded",
                "timeout_s": config.request_timeout_s,
            }
        finally:
            metrics.in_flight -= 1
            self._semaphore.release()

    async def _dispatch(
        self,
        method: str,
        tenant: str | None,
        head: str,
        rest: list[str],
        query: dict[str, str],
        body: bytes,
    ) -> tuple[int, Any]:
        if not head:
            raise HttpError(404, "no such endpoint; see /stats for the surface")
        if head == "tenants":
            return await self._tenants_admin(method, tenant)
        if tenant is not None and head not in _TENANT_ENDPOINTS:
            raise HttpError(
                404, f"no such tenant endpoint: {head} (process-level; drop the /t prefix)"
            )
        name = tenant if tenant is not None else self.registry.alias
        if head == "control" and not rest:
            self._require(method, "GET")
            return 200, await self._control(name, query)
        if head == "close-links" and not rest:
            self._require(method, "GET")
            return 200, await self._close_links(name, query)
        if head == "ubo" and len(rest) == 1:
            self._require(method, "GET")
            return 200, await self._ubo(name, rest[0], query)
        if head == "family" and not rest:
            self._require(method, "GET")
            return 200, await self._family(name)
        if head == "neighbors" and len(rest) == 1:
            self._require(method, "GET")
            return 200, await self._neighbors(name, rest[0], query)
        if head == "stats" and not rest:
            self._require(method, "GET")
            return 200, await self._stats(name)
        if head == "healthz" and not rest:
            self._require(method, "GET")
            return 200, self._healthz()
        if head == "metrics" and not rest:
            self._require(method, "GET")
            if (
                query.get("scope") == "cluster"
                and self.cluster_metrics_provider is not None
            ):
                return 200, await self.cluster_metrics_provider()
            return 200, self._metrics_payload()
        if head == "mutations" and not rest:
            self._require(method, "POST")
            return await self._mutations(name, query, body)
        target = head if not rest else "/".join([head, *rest])
        raise HttpError(404, f"no such endpoint: /{target}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"use {expected}")

    # ------------------------------------------------------------------
    # tenant admin
    # ------------------------------------------------------------------

    async def _tenants_admin(
        self, method: str, tenant: str | None
    ) -> tuple[int, Any]:
        if tenant is None:
            self._require(method, "GET")
            return 200, {
                "alias": self.registry.alias,
                "tenants": [
                    binding.info()
                    for _, binding in sorted(self.registry.items())
                ],
            }
        if method == "GET":
            return 200, self.registry.get(tenant).info()
        if method == "PUT":
            return await self._create_tenant(tenant)
        if method == "DELETE":
            return await self._delete_tenant(tenant)
        raise HttpError(405, "use GET, PUT or DELETE")

    async def _create_tenant(self, tenant: str) -> tuple[int, Any]:
        validate_tenant(tenant)
        if self.admin_forwarder is not None:
            return await self.admin_forwarder("create", tenant)
        async with self._admin_lock:
            existing = self.registry.peek(tenant)
            if existing is not None:
                return 200, {"status": "exists", **existing.info()}
            # the initial (empty-graph) build is synchronous — run it off
            # the event loop like any other build
            binding = await asyncio.get_running_loop().run_in_executor(
                None, self.registry.create, tenant
            )
        return 201, {"status": "created", **binding.info()}

    async def _delete_tenant(self, tenant: str) -> tuple[int, Any]:
        if self.admin_forwarder is not None:
            return await self.admin_forwarder("delete", tenant)
        async with self._admin_lock:
            if tenant == self.registry.alias:
                raise HttpError(
                    400, f"cannot delete the alias tenant {tenant!r}"
                )
            binding = self.registry.drop(tenant)  # UnknownTenantError -> 404
            # a same-named tenant created later restarts at version 1;
            # stale cached bodies keyed (tenant, 1, ...) must not serve
            self.cache.evict_tenant(tenant)
        return 200, {
            "status": "deleted",
            "tenant": tenant,
            "version": binding.version,
        }

    # ------------------------------------------------------------------
    # endpoint implementations
    # ------------------------------------------------------------------

    async def _cached(self, key: Any, fn: Callable[[], Any]) -> bytes:
        """LRU -> single-flight -> executor; ``fn`` is a sync snapshot read,
        encoded in the same executor call so the LRU holds its body."""
        loop = asyncio.get_running_loop()

        async def compute() -> bytes:
            return await loop.run_in_executor(None, lambda: _encode(fn()))

        return await self.cache.get_or_compute(key, compute)

    async def _control(self, tenant: str, query: dict[str, str]) -> bytes:
        source = query.get("source")
        threshold = _threshold_param(query)
        snapshot = self.registry.get(tenant).manager.current
        key = snapshot_key(snapshot.version, "control", (source, threshold), tenant)
        return await self._cached(key, lambda: snapshot.control_payload(source, threshold))

    async def _close_links(self, tenant: str, query: dict[str, str]) -> bytes:
        threshold = _threshold_param(query)
        snapshot = self.registry.get(tenant).manager.current
        key = snapshot_key(snapshot.version, "close-links", (threshold,), tenant)
        return await self._cached(key, lambda: snapshot.close_links_payload(threshold))

    async def _family(self, tenant: str) -> bytes:
        snapshot = self.registry.get(tenant).manager.current
        key = snapshot_key(snapshot.version, "family", (), tenant)
        return await self._cached(key, snapshot.family_payload)

    async def _stats(self, tenant: str) -> bytes:
        binding = self.registry.get(tenant)
        snapshot = binding.manager.current
        key = snapshot_key(snapshot.version, "stats", (), tenant)
        cached = await self._cached(key, snapshot.stats_payload)
        # identity fields land outside the cached body: the cache is
        # version-keyed and must stay byte-identical across workers
        extra: dict[str, Any] = {
            "snapshot_version": snapshot.version,
            "worker_id": self.worker_id,
            "tenant": binding.name,
        }
        if self.registry.persist is not None:
            extra["persist"] = self.registry.persist.stats()
        elif self.builder_persist is not None:
            extra["persist"] = self.builder_persist
        # splice the two JSON objects: the body equals the encoding of
        # the merged dict (the stats payload is never empty and shares
        # no key with ``extra``)
        return cached[:-1] + b", " + _encode(extra)[1:]

    async def _ubo(self, tenant: str, company: str, query: dict[str, str]) -> bytes:
        threshold = _threshold_param(query)
        snapshot = self.registry.get(tenant).manager.current
        if not snapshot.graph.has_node(company):
            raise HttpError(404, f"unknown node: {company}")
        if snapshot.graph.node(company).label != COMPANY:
            raise HttpError(400, f"{company} is not a company")
        key = snapshot_key(snapshot.version, "ubo", (company, threshold), tenant)

        async def compute() -> bytes:
            return await self._ubo_batcher.submit((tenant, snapshot, company, threshold))

        return await self.cache.get_or_compute(key, compute)

    async def _neighbors(self, tenant: str, node_id: str, query: dict[str, str]) -> bytes:
        depth = _int_param(query, "depth", default=1, low=1, high=8)
        label = query.get("label")
        snapshot = self.registry.get(tenant).manager.current
        if not snapshot.graph.has_node(node_id):
            raise HttpError(404, f"unknown node: {node_id}")
        key = snapshot_key(snapshot.version, "neighbors", (node_id, depth, label), tenant)
        return await self._cached(
            key, lambda: snapshot.neighbors_payload(node_id, depth=depth, label=label)
        )

    def _healthz(self) -> Any:
        try:
            version = self.manager.version
        except UnknownTenantError:
            version = None
        updater = self.updater if self.registry.alias in self.registry else None
        return {
            "status": "ok",
            "version": version,
            "worker_id": self.worker_id,
            "tenants": len(self.registry),
            "uptime_s": round(time.time() - self.metrics.started_at, 3),
            "rebuild_in_progress": (
                updater.rebuild_in_progress if updater else False
            ),
        }

    def _metrics_payload(self) -> Any:
        payload = self.metrics.to_dict()
        payload["worker_id"] = self.worker_id
        payload["cache"] = self.cache.stats()
        payload["batchers"] = {"ubo": self._ubo_batcher.stats()}
        payload["registry"] = self.registry.stats()
        tenants: dict[str, Any] = {}
        for name, binding in sorted(self.registry.items()):
            entry: dict[str, Any] = {
                "version": binding.manager.version,
                "swaps": binding.manager.swaps,
                "last_swap_pause_s": round(binding.manager.last_swap_pause_s, 6),
            }
            if binding.updater is not None:
                entry["updater"] = binding.updater.stats()
            tenants[name] = entry
        payload["tenants"] = tenants
        # alias-tenant views, kept for pre-tenancy dashboards
        alias = self.registry.peek(self.registry.alias)
        payload["snapshot_version"] = alias.manager.version if alias else None
        payload["snapshot"] = {
            "version": alias.manager.version if alias else None,
            "swaps": alias.manager.swaps if alias else 0,
            "last_swap_pause_s": (
                round(alias.manager.last_swap_pause_s, 6) if alias else 0.0
            ),
        }
        if alias is not None and alias.updater is not None:
            payload["updater"] = alias.updater.stats()
        return payload

    async def _mutations(
        self, tenant: str, query: dict[str, str], body: bytes
    ) -> tuple[int, Any]:
        binding = self.registry.get(tenant)
        if binding.updater is None and self.mutation_forwarder is None:
            raise HttpError(503, "mutations disabled: service started without a builder")
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"bad JSON body: {exc}") from None
        deltas = payload.get("deltas") if isinstance(payload, dict) else None
        if not isinstance(deltas, list):
            raise HttpError(400, 'body must be {"deltas": [...]}')
        if binding.updater is None:
            assert self.mutation_forwarder is not None
            return await self.mutation_forwarder(tenant, deltas)
        wait = query.get("wait", "").lower() in ("1", "true", "yes")
        result = await binding.updater.apply(deltas, wait=wait)
        return (200 if wait else 202), result

    # ------------------------------------------------------------------
    # micro-batch function (custom-threshold /ubo lookups share solves)
    # ------------------------------------------------------------------

    async def _ubo_batch(self, keys: list[Any]) -> dict[Any, bytes]:
        return await asyncio.get_running_loop().run_in_executor(
            None, self._ubo_batch_sync, keys
        )

    @staticmethod
    def _ubo_batch_sync(keys: list[Any]) -> dict[Any, bytes]:
        # grouping keeps the tenant in the group key: two tenants' point
        # lookups never share a solve even if their snapshots collide in
        # version and node ids
        groups: dict[tuple[str, Snapshot, float | None], list[str]] = {}
        for tenant, snapshot, company, threshold in keys:
            groups.setdefault((tenant, snapshot, threshold), []).append(company)
        results: dict[Any, bytes] = {}
        for (tenant, snapshot, threshold), companies in groups.items():
            payloads = snapshot.ubo_payloads(companies, threshold)
            for company in companies:
                results[(tenant, snapshot, company, threshold)] = _encode(payloads[company])
        return results


def build_service(
    graph: CompanyGraph,
    config: ServiceConfig | None = None,
    snapshot_config: SnapshotConfig | None = None,
    classifiers: Sequence[BayesianLinkClassifier] | None = None,
    tracer=None,
    start_version: int = 0,
    tenant: str = DEFAULT_TENANT,
) -> ReasoningService:
    """Build the next version from ``graph``, publish it, wire the service.

    ``start_version`` seeds the builder's version counter — a service
    booting against a durable store with history passes the store's
    latest version so the freshly built snapshot extends it.  ``tenant``
    names the seeded (alias) tenant; un-prefixed routes resolve to it.
    """
    registry = GraphRegistry(
        snapshot_config=snapshot_config, classifiers=classifiers, tracer=tracer
    )
    registry.create(tenant, graph, start_version=start_version)
    return ReasoningService(config=config, tracer=tracer, registry=registry)


def _encode(payload: Any) -> bytes:
    """A response body: every route's payload goes through this once."""
    return json.dumps(payload, default=str).encode("utf-8")


def _threshold_param(query: dict[str, str]) -> float | None:
    """``?threshold=`` as a share in [0, 1], or None when absent.  ``nan``
    and ``inf`` parse as floats but are not shares — and ``nan != nan``
    would make every such request a cache key that can never hit."""
    raw = query.get("threshold")
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise HttpError(400, f"bad 'threshold': {raw!r} is not a number") from None
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise HttpError(400, f"bad 'threshold': {raw!r} is not in [0, 1]")
    return value


def _int_param(
    query: dict[str, str], name: str, default: int, low: int, high: int
) -> int:
    raw = query.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise HttpError(400, f"bad {name!r}: {raw!r} is not an integer") from None
    if not low <= value <= high:
        raise HttpError(400, f"bad {name!r}: must be in [{low}, {high}]")
    return value
