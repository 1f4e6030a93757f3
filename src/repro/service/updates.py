"""Live graph updates: deltas -> staging graph -> background re-augment.

``POST /mutations`` lands here.  The updater keeps a *staging* copy of
the company graph (the accumulated state of every accepted delta batch).
Applying a batch is two phases:

1. **validate + apply** (fast, on the event loop): the deltas run
   against a copy of the staging graph; any malformed op raises
   :class:`MutationError` and the whole batch is rejected — the staging
   graph only advances on success;
2. **rebuild + publish** (slow, in an executor thread): the snapshot
   builder re-augments the new graph — warm incremental embedding when
   the batch only *added* edges — and the manager publishes the next
   version atomically.  The previous snapshot keeps serving reads the
   whole time.

Rebuilds are serialized by an asyncio lock; a second batch accepted
during a rebuild simply queues its own rebuild, which starts from the
staging state that already includes both batches.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Sequence

from ..graph.company_graph import COMPANY, PERSON, SHAREHOLDING, CompanyGraph
from ..graph.property_graph import GraphError
from ..telemetry import NULL_TRACER
from .incremental import DeltaBatch
from .snapshot import SnapshotBuilder, SnapshotManager

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
    It still unpacks as the historical ``(new_edges, removed_any)`` pair.
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
                node_id = _required(delta, "id")
                graph.add_company(node_id, **delta.get("properties", {}))
                batch.added_nodes.append((node_id, COMPANY))
            elif op == "add_person":
                node_id = _required(delta, "id")
                graph.add_person(node_id, **delta.get("properties", {}))
                batch.added_nodes.append((node_id, PERSON))
            elif op == "add_shareholding":
                edge = graph.add_shareholding(
                    _required(delta, "owner"),
                    _required(delta, "company"),
                    float(_required(delta, "share")),
                    **delta.get("properties", {}),
                )
                batch.new_edges.append(edge)
            elif op == "remove_shareholding":
                owner = _required(delta, "owner")
                company = _required(delta, "company")
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
                node_id = _required(delta, "id")
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
                node_id = _required(delta, "id")
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


class GraphUpdater:
    """Applies mutation batches and publishes new snapshot versions."""

    def __init__(
        self,
        manager: SnapshotManager,
        builder: SnapshotBuilder,
        base_graph: CompanyGraph,
        tracer=None,
    ):
        self._manager = manager
        self._builder = builder
        # staging starts as the *same object* the initial snapshot was
        # built from: the first accepted batch then carries that object
        # as its base, which is what lets the builder take the
        # incremental path from version 1 on.  Safe to alias — ``apply``
        # only ever copies staging, never mutates it in place.
        self._staging = base_graph
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
        #: when set (a callable taking the snapshot, e.g.
        #: ``FrameStore.persist``), every published version is also
        #: written to the durable store — in the executor, *after* the
        #: in-memory publish, and non-fatally: serving never stalls or
        #: fails because a disk write did
        self.persist_hook = None
        self.persists = 0
        self.persist_failures = 0
        #: what the most recent successful persist wrote, when the hook
        #: reports it (a dict such as ``FrameStore.last_persist``)
        self.last_persist: dict[str, Any] | None = None
        #: ``{"version": int, "error": str}`` of the most recent persist
        #: failure — surfaced in ``/stats`` so an operator can see *why*
        #: (and for which version) durable persistence failed
        self.last_persist_error: dict[str, Any] | None = None
        #: test / bench hook — artificial build slowdown (seconds)
        self.build_delay_s = 0.0
        self._rebuilding = 0

    @property
    def rebuild_in_progress(self) -> bool:
        return self._rebuilding > 0

    async def apply(
        self, deltas: Sequence[dict[str, Any]], wait: bool = False
    ) -> dict[str, Any]:
        """Validate and accept one mutation batch.

        Returns an ``accepted`` payload immediately (the rebuild runs in
        the background) unless ``wait`` is true, in which case the reply
        carries the newly published version.
        """
        if not deltas:
            raise MutationError("empty delta batch")
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
        task = asyncio.get_running_loop().create_task(self._rebuild(candidate, batch))
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
        if task.cancelled():
            return
        task.exception()  # mark retrieved; _rebuild already recorded it

    async def _rebuild(self, graph: CompanyGraph, batch: DeltaBatch):
        async with self._build_lock:
            self._rebuilding += 1
            started = time.perf_counter()
            try:
                snapshot = await asyncio.get_running_loop().run_in_executor(
                    None, self._build_sync, graph, batch
                )
                self._manager.publish(snapshot)
                self.rebuilds += 1
                self.last_rebuild_s = time.perf_counter() - started
                if self.persist_hook is not None:
                    await asyncio.get_running_loop().run_in_executor(
                        None, self._persist_sync, snapshot
                    )
                return snapshot
            except BaseException as exc:
                self.rebuild_failures += 1
                self.last_rebuild_error = repr(exc)
                with self.tracer.span("rebuild.failed", error=repr(exc)):
                    logger.exception("snapshot rebuild failed; resyncing staging")
                self._resync_staging(graph)
                raise
            finally:
                self._rebuilding -= 1

    def _resync_staging(self, failed_graph: CompanyGraph) -> None:
        """Roll staging back to the published graph after a failed build.

        Without this, a failed rebuild leaves ``_staging`` permanently
        ahead of the served snapshot: the batch was accepted, the build
        died, and every later batch keeps stacking on state that will
        never be published.  Rolling back to the served snapshot's graph
        re-synchronises accepted state with published state.  If a newer
        batch was accepted while this build ran, staging has moved on —
        that batch's own rebuild will publish (or resync) it, so we
        leave it alone.
        """
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

    def _build_sync(self, graph: CompanyGraph, batch: DeltaBatch):
        if self.build_delay_s:
            time.sleep(self.build_delay_s)
        new_edges = None if batch.removed_any else batch.new_edges
        return self._builder.build(graph, new_edges=new_edges, delta=batch)

    def _persist_sync(self, snapshot) -> None:
        try:
            wrote = self.persist_hook(snapshot)
            self.persists += 1
            if isinstance(wrote, dict):
                self.last_persist = wrote
        except Exception as exc:
            self.persist_failures += 1
            self.last_persist_error = {
                "version": snapshot.version,
                "error": repr(exc),
            }
            with self.tracer.span("persist.failed", error=repr(exc)):
                logger.exception("durable persist of version %s failed", snapshot.version)

    def persist_stats(self) -> dict[str, Any]:
        """The ``persist`` section of ``/stats``."""
        return {
            "persists": self.persists,
            "persist_failures": self.persist_failures,
            "last_persist_error": self.last_persist_error,
            "last_persist": self.last_persist,
        }

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
            **self.persist_stats(),
            "staging_nodes": self._staging.node_count,
            "staging_edges": self._staging.edge_count,
        }


def _required(delta: dict[str, Any], key: str) -> Any:
    value = delta.get(key)
    if value is None:
        raise MutationError(f"missing required field {key!r} for op {delta.get('op')!r}")
    return value
