"""Live graph updates: the one tenant write path.

Every snapshot version of a tenant — a ``POST /mutations`` batch or its
first version (``PUT /t/{tenant}``, the extract ``serve`` boots from) —
comes out of the same synchronous core on :class:`GraphUpdater`, in the
single-process service and in the pool parent alike::

    stage -> build -> publish -> hand-off -> persist -> ack

* **stage** (fast): the deltas run against a copy of the *staging*
  graph (the accumulated state of every accepted batch); any malformed
  op raises :class:`MutationError` and the whole batch is rejected —
  staging only advances on success;
* **build**, **publish** (slow): the builder re-augments the new graph —
  warm incremental embedding when the batch only *added* edges — and
  the manager swaps to the next version atomically; the previous
  snapshot keeps serving reads the whole time;
* **hand-off**: what shows the version beyond this process — nothing
  single-process; seal a segment, broadcast, await the fleet in the pool;
* **persist**: the process's one :class:`Persister`, non-fatally; a
  failure before it rolls staging back to the served graph.

:meth:`GraphUpdater.apply` is the asyncio front (the pool parent calls
``stage`` / ``publish`` itself): it stages on the event loop and runs
the rest in an executor thread.  Rebuilds are serialized by an asyncio
lock; a second batch accepted during a rebuild simply queues its own,
which starts from the staging state that already includes both batches.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from typing import Any, Callable, Sequence

from ..graph.company_graph import COMPANY, PERSON, SHAREHOLDING, CompanyGraph
from ..graph.property_graph import GraphError
from ..telemetry import NULL_TRACER
from .incremental import DeltaBatch
from .snapshot import DEFAULT_TENANT, Snapshot, SnapshotBuilder, SnapshotManager

logger = logging.getLogger(__name__)

#: Delta operations accepted by :func:`apply_deltas`.
SUPPORTED_OPS = (
    "add_company",
    "add_person",
    "add_shareholding",
    "remove_shareholding",
    "remove_edge",
    "remove_node",
    "set_property",
)


class MutationError(ValueError):
    """A malformed or inapplicable mutation delta (whole batch rejected)."""


def apply_deltas(
    graph: CompanyGraph, deltas: Sequence[dict[str, Any]]
) -> DeltaBatch:
    """Apply ``deltas`` to ``graph`` in place.

    Returns a :class:`~repro.service.incremental.DeltaBatch` recording
    exactly what changed — the fuel of the incremental snapshot build.
    Raises :class:`MutationError` on the first bad op; callers apply to a
    throwaway copy so a failed batch leaves no trace.
    """
    batch = DeltaBatch()
    for position, delta in enumerate(deltas):
        if not isinstance(delta, dict):
            raise MutationError(f"delta #{position} is not an object")
        op = delta.get("op")
        try:
            if op == "add_company":
                node_id = _node_id(delta, "id")
                graph.add_company(node_id, **delta.get("properties", {}))
                batch.added_nodes.append((node_id, COMPANY))
            elif op == "add_person":
                node_id = _node_id(delta, "id")
                graph.add_person(node_id, **delta.get("properties", {}))
                batch.added_nodes.append((node_id, PERSON))
            elif op == "add_shareholding":
                edge = graph.add_shareholding(
                    _node_id(delta, "owner"),
                    _node_id(delta, "company"),
                    float(_required(delta, "share")),
                    **delta.get("properties", {}),
                )
                batch.new_edges.append(edge)
            elif op == "remove_shareholding":
                owner = _node_id(delta, "owner")
                company = _node_id(delta, "company")
                edges = [
                    e for e in graph.out_edges(owner, SHAREHOLDING)
                    if e.target == company
                ]
                if not edges:
                    raise MutationError(
                        f"delta #{position}: no shareholding {owner!r} -> {company!r}"
                    )
                for edge in edges:
                    batch.removed_edges.append(graph.remove_edge(edge.id))
                batch.removed_any = True
            elif op == "remove_edge":
                batch.removed_edges.append(graph.remove_edge(_required(delta, "id")))
                batch.removed_any = True
            elif op == "remove_node":
                node_id = _node_id(delta, "id")
                node = graph.node(node_id)
                incident = {
                    e.id: e
                    for e in list(graph.out_edges(node_id)) + list(graph.in_edges(node_id))
                }
                graph.remove_node(node_id)
                batch.removed_nodes.append((node_id, node.label))
                batch.removed_edges.extend(incident.values())
                batch.removed_any = True
            elif op == "set_property":
                # via the graph (not the node dict) so the generation
                # counter invalidates any cached columnar frame
                node_id = _node_id(delta, "id")
                name = _required(delta, "name")
                graph.set_property(node_id, name, delta.get("value"))
                batch.property_changes.append((node_id, graph.node(node_id).label, name))
            else:
                raise MutationError(
                    f"delta #{position}: unknown op {op!r} "
                    f"(supported: {', '.join(SUPPORTED_OPS)})"
                )
        except MutationError:
            raise
        except (GraphError, TypeError, ValueError) as exc:
            raise MutationError(f"delta #{position} ({op}): {exc}") from exc
    return batch


class Persister:
    """The process's one durable write target, with its accounting.

    ``write`` is ``(snapshot, tenant) -> dict | None`` — ``serve --store``
    passes one over ``FrameStore.persist`` returning what it wrote.  A
    call never raises: a version is persisted *after* its in-memory
    publish and non-fatally, so serving never stalls or fails because a
    disk write did; the failure is counted and kept for ``/stats``.
    """

    def __init__(self, write: Callable[[Snapshot, str], "dict[str, Any] | None"]):
        self._write = write
        # tenants rebuild on different executor threads (the store
        # serializes its writers anyway)
        self._lock = threading.Lock()
        self.persists = 0
        self.persist_failures = 0
        #: what the last successful persist wrote (``FrameStore.last_persist``)
        self.last_persist: dict[str, Any] | None = None
        #: ``{"tenant", "version", "error"}`` of the most recent failure,
        #: so an operator can see *why* durable persistence failed
        self.last_persist_error: dict[str, Any] | None = None

    def __call__(self, snapshot: Snapshot, tenant: str) -> None:
        with self._lock:
            try:
                wrote = self._write(snapshot, tenant)
                self.persists += 1
                if isinstance(wrote, dict):
                    self.last_persist = wrote
            except Exception as exc:
                self.persist_failures += 1
                self.last_persist_error = {
                    "tenant": tenant, "version": snapshot.version, "error": repr(exc),
                }
                logger.exception(
                    "durable persist of tenant %s version %s failed",
                    tenant, snapshot.version,
                )

    def stats(self) -> dict[str, Any]:
        """The ``persist`` section of ``/stats``."""
        return {
            "persists": self.persists,
            "persist_failures": self.persist_failures,
            "last_persist_error": self.last_persist_error,
            "last_persist": self.last_persist,
        }


class GraphUpdater:
    """One tenant's write path: ``stage`` + ``publish`` are the
    synchronous core, ``apply`` its asyncio front."""

    def __init__(
        self,
        manager: SnapshotManager,
        builder: SnapshotBuilder,
        base_graph: CompanyGraph,
        tracer=None,
        tenant: str = DEFAULT_TENANT,
        persist: Persister | None = None,
    ):
        self._manager = manager
        self._builder = builder
        self.tenant = tenant
        self._persist = persist
        # staging starts as the *same object* the initial snapshot was
        # built from: the first accepted batch then carries that object
        # as its base, which is what lets the builder take the
        # incremental path from version 1 on.  Safe to alias — ``stage``
        # only ever copies staging, never mutates it in place.
        self._staging = base_graph
        # ``stage`` runs on the event loop, the rollback of a failed
        # build in an executor thread
        self._staging_lock = threading.Lock()
        self._build_lock = asyncio.Lock()
        #: strong references to in-flight rebuild tasks — the event loop
        #: only keeps weak ones, so an unreferenced task could be
        #: garbage-collected mid-rebuild
        self._tasks: set[asyncio.Task] = set()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.batches_accepted = 0
        self.batches_rejected = 0
        self.deltas_applied = 0
        self.rebuilds = 0
        self.rebuild_failures = 0
        self.staging_rollbacks = 0
        self.last_rebuild_error: str | None = None
        self.last_rebuild_s = 0.0
        #: test / bench hook — artificial build slowdown (seconds)
        self.build_delay_s = 0.0

    @property
    def rebuild_in_progress(self) -> bool:
        return self._build_lock.locked()

    def stage(self, deltas: Sequence[dict[str, Any]]) -> tuple[CompanyGraph, DeltaBatch]:
        """Validate one batch against a copy of staging and accept it;
        returns the new staging graph and the batch chained onto its
        base — the arguments of :meth:`publish`."""
        if not deltas:
            raise MutationError("empty delta batch")
        with self._staging_lock:
            base = self._staging
            candidate = base.copy()
            try:
                batch = apply_deltas(candidate, deltas)
            except MutationError:
                self.batches_rejected += 1
                raise
            batch.base = base
            batch.base_generation = base.generation
            self._staging = candidate
        self.batches_accepted += 1
        self.deltas_applied += len(deltas)
        return candidate, batch

    def publish(
        self,
        graph: CompanyGraph,
        batch: DeltaBatch | None = None,
        handoff: Callable[[Snapshot, str], None] | None = None,
    ) -> Snapshot:
        """Build ``graph`` (with the ``batch`` :meth:`stage` returned;
        ``None`` for a tenant's first version), publish, hand off
        (``handoff(snapshot, tenant)``), persist.  Synchronous and
        CPU-bound; the caller serializes calls.  A failure rolls staging
        back and re-raises."""
        started = time.perf_counter()
        try:
            if self.build_delay_s:
                time.sleep(self.build_delay_s)
            new_edges = None if batch is None or batch.removed_any else batch.new_edges
            snapshot = self._builder.build(graph, new_edges=new_edges, delta=batch)
            self._manager.publish(snapshot)
            if handoff is not None:
                handoff(snapshot, self.tenant)
            if batch is not None:  # a tenant's first version is no *re*build
                self.rebuilds += 1
                self.last_rebuild_s = time.perf_counter() - started
            if self._persist is not None:
                self._persist(snapshot, self.tenant)
            return snapshot
        except BaseException as exc:
            self.rebuild_failures += 1
            self.last_rebuild_error = repr(exc)
            with self.tracer.span("rebuild.failed", error=repr(exc)):
                logger.exception("snapshot rebuild failed; resyncing staging")
            self._resync_staging(graph)
            raise

    def _resync_staging(self, failed_graph: CompanyGraph) -> None:
        """Roll staging back to the published graph after a failed build.

        Without this, a failed rebuild leaves ``_staging`` permanently
        ahead of the served snapshot: the batch was accepted, the build
        died, and every later batch keeps stacking on state that will
        never be published.  If a newer batch was accepted while this
        build ran, staging has moved on — that batch's own rebuild will
        publish (or resync) it, so we leave it alone.
        """
        with self._staging_lock:
            if self._staging is not failed_graph:
                return
            try:
                current = self._manager.current
            except RuntimeError:  # nothing published yet — keep staging as is
                return
            self._staging = current.graph
        # the failed build may have half-advanced builder-side caches
        # (warm embedder, row state) — drop them so the next build
        # starts cold from a consistent base
        self._builder.reset_incremental()
        self.staging_rollbacks += 1

    async def apply(
        self, deltas: Sequence[dict[str, Any]], wait: bool = False
    ) -> dict[str, Any]:
        """Validate and accept one mutation batch.

        Returns an ``accepted`` payload immediately (the rebuild runs in
        the background) unless ``wait`` is true, in which case the reply
        carries the newly published version.
        """
        graph, batch = self.stage(deltas)
        task = asyncio.get_running_loop().create_task(self._rebuild(graph, batch))
        self._tasks.add(task)
        task.add_done_callback(self._on_rebuild_done)
        if wait:
            snapshot = await task
            return {
                "status": "published",
                "applied": len(deltas),
                "version": snapshot.version,
                "build_s": round(snapshot.built_s, 4),
                "warm_build": snapshot.warm,
            }
        return {
            "status": "accepted",
            "applied": len(deltas),
            "serving_version": self._manager.version,
            "next_version": self._builder.version + 1,
        }

    def _on_rebuild_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled():
            task.exception()  # mark retrieved; publish already recorded it

    async def _rebuild(self, graph: CompanyGraph, batch: DeltaBatch) -> Snapshot:
        async with self._build_lock:
            return await asyncio.get_running_loop().run_in_executor(
                None, self.publish, graph, batch
            )

    def stats(self) -> dict[str, Any]:
        return {
            "batches_accepted": self.batches_accepted,
            "batches_rejected": self.batches_rejected,
            "deltas_applied": self.deltas_applied,
            "rebuilds": self.rebuilds,
            "rebuild_failures": self.rebuild_failures,
            "staging_rollbacks": self.staging_rollbacks,
            "last_rebuild_error": self.last_rebuild_error,
            "rebuild_in_progress": self.rebuild_in_progress,
            "last_rebuild_s": round(self.last_rebuild_s, 4),
            "staging_nodes": self._staging.node_count,
            "staging_edges": self._staging.edge_count,
        }


def _required(delta: dict[str, Any], key: str) -> Any:
    value = delta.get(key)
    if value is None:
        raise MutationError(f"missing required field {key!r} for op {delta.get('op')!r}")
    return value


def _node_id(delta: dict[str, Any], key: str) -> str:
    """A node id field: a string, as every id a URL can name is."""
    value = _required(delta, key)
    if not isinstance(value, str):
        raise MutationError(
            f"field {key!r} of op {delta.get('op')!r} must be a string node id,"
            f" not {type(value).__name__}"
        )
    return value
