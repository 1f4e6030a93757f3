"""Caching primitives for the reasoning service.

Three cooperating pieces, all event-loop local (no thread locks — every
mutation happens on the loop; the heavy computations themselves run in
executor threads but their *registration* is loop-side):

* :class:`LRUCache` — a bounded mapping with hit/miss/eviction counters
  and the summed length of the ``bytes`` values it holds (the server
  caches encoded response bodies).
  Keys are ``(tenant, snapshot_version, endpoint, params)`` tuples (see
  :func:`~repro.service.snapshot.snapshot_key`): the tenant keeps
  co-hosted graphs in disjoint keyspaces, and the snapshot version makes
  entries for superseded versions age out naturally instead of needing
  invalidation.
* :class:`SingleFlight` — coalesces concurrent identical computations:
  the first caller becomes the leader and actually computes; followers
  await the leader's future.  N concurrent identical requests trigger
  exactly one underlying computation.
* :class:`MicroBatcher` — point lookups submitted in one event-loop
  turn are flushed as one batch on the next turn to a batch function
  that can share work across keys (e.g. the per-person
  integrated-ownership solves behind ``/ubo/{id}``); a lone lookup
  waits for no timer.

:class:`ReasoningCache` composes the first two into the read-through
cache the server uses for whole-relation endpoints.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Hashable

#: Distinct "no cached value" marker (``None`` is a valid cached value).
_UNSET = object()


class LRUCache:
    """A bounded least-recently-used mapping with instrumentation."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: summed length of the held values that are ``bytes``
        self.bytes = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self.bytes -= _nbytes(self._entries.get(key))
        self._entries[key] = value
        self._entries.move_to_end(key)
        self.bytes += _nbytes(value)
        while len(self._entries) > self.capacity:
            _key, evicted = self._entries.popitem(last=False)
            self.bytes -= _nbytes(evicted)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.bytes = 0

    def evict_prefix(self, prefix: Any) -> int:
        """Drop every entry whose tuple key leads with ``prefix``.

        Used when a tenant is deleted: a later same-named tenant restarts
        its version counter, so the dropped tenant's entries would
        otherwise be indistinguishable from the new tenant's.
        """
        doomed = [
            key
            for key in self._entries
            if isinstance(key, tuple) and key and key[0] == prefix
        ]
        for key in doomed:
            self.bytes -= _nbytes(self._entries.pop(key))
        self.evictions += len(doomed)
        return len(doomed)

    def stats(self) -> dict[str, int]:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes": self.bytes,
        }


def _nbytes(value: Any) -> int:
    return len(value) if isinstance(value, bytes) else 0


class SingleFlight:
    """Coalesce concurrent calls with the same key into one computation.

    The supplier runs in a *detached* task rather than inline in the
    leader coroutine: if the leader's own request is cancelled (deadline,
    disconnect) the computation keeps running and every coalesced
    follower still gets the result.  Cancelling one waiter never
    propagates to the others — each awaits through its own shield.
    """

    def __init__(self) -> None:
        self._inflight: dict[Hashable, asyncio.Future] = {}
        self.leaders = 0
        self.coalesced = 0

    def inflight(self) -> int:
        return len(self._inflight)

    async def run(
        self, key: Hashable, supplier: Callable[[], Awaitable[Any]]
    ) -> Any:
        """Run ``supplier`` once per concurrent ``key``; share the result."""
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            return await asyncio.shield(existing)
        task = asyncio.get_running_loop().create_task(supplier())
        self._inflight[key] = task
        self.leaders += 1
        task.add_done_callback(lambda done, key=key: self._settle(key, done))
        return await asyncio.shield(task)

    def _settle(self, key: Hashable, task: "asyncio.Task") -> None:
        self._inflight.pop(key, None)
        if not task.cancelled():
            task.exception()  # mark retrieved even when every waiter left

    def stats(self) -> dict[str, int]:
        return {
            "leaders": self.leaders,
            "coalesced": self.coalesced,
            "inflight": len(self._inflight),
        }


class ReasoningCache:
    """Read-through LRU with single-flight fill.

    ``get_or_compute`` returns the cached value when present; otherwise
    exactly one of the concurrent callers computes, stores, and shares
    the result.  ``computations`` counts actual underlying computations.
    """

    def __init__(self, capacity: int = 1024):
        self.lru = LRUCache(capacity)
        self.flight = SingleFlight()

    @property
    def computations(self) -> int:
        return self.flight.leaders

    def evict_tenant(self, tenant: str) -> int:
        """Drop a deleted tenant's cached bodies (keys lead with it)."""
        return self.lru.evict_prefix(tenant)

    async def get_or_compute(
        self, key: Hashable, compute: Callable[[], Awaitable[Any]]
    ) -> Any:
        value = self.lru.get(key, _UNSET)
        if value is not _UNSET:
            return value

        async def fill() -> Any:
            result = await compute()
            self.lru.put(key, result)
            return result

        return await self.flight.run(key, fill)

    def stats(self) -> dict[str, Any]:
        return {**self.lru.stats(), **self.flight.stats()}


class MicroBatcher:
    """Flush the point lookups submitted in one event-loop turn as one batch.

    ``batch_fn`` is an async callable taking a list of distinct keys and
    returning ``{key: value}``.  The first key into an empty batch
    schedules the flush for the next loop turn (``call_soon``), so every
    key submitted before that turn ends joins it and a lone key waits
    for no timer.  A batch is thus bounded by the requests admitted in
    one turn.  Duplicate concurrent keys are coalesced onto the same
    future, so a batch never computes a key twice.
    """

    def __init__(
        self, batch_fn: Callable[[list[Hashable]], Awaitable[dict[Hashable, Any]]]
    ):
        self._batch_fn = batch_fn
        self._pending: dict[Hashable, list[asyncio.Future]] = {}
        #: strong references to in-flight batch tasks — the event loop
        #: only keeps weak ones, so an unreferenced batch task can be
        #: garbage-collected mid-flight, stranding its waiters forever
        self._tasks: set[asyncio.Task] = set()
        self.requests = 0
        self.batches = 0
        self.batched_keys = 0

    async def submit(self, key: Hashable) -> Any:
        self.requests += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if not self._pending:  # empty exactly while no flush is scheduled
            loop.call_soon(self._flush_pending, loop)
        self._pending.setdefault(key, []).append(future)
        return await future

    def _flush_pending(self, loop: asyncio.AbstractEventLoop) -> None:
        pending, self._pending = self._pending, {}
        task = loop.create_task(self._run_batch(pending))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(
        self, pending: dict[Hashable, list[asyncio.Future]]
    ) -> None:
        self.batches += 1
        self.batched_keys += len(pending)
        try:
            results = await self._batch_fn(list(pending))
        except BaseException as exc:  # propagate to every waiter
            for futures in pending.values():
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
            return
        for key, futures in pending.items():
            if key not in results:
                # a silently dropped key must not masquerade as a real
                # ``None`` value — surface the contract violation
                for future in futures:
                    if not future.done():
                        future.set_exception(
                            KeyError(f"batch function returned no value for key {key!r}")
                        )
                continue
            value = results[key]
            for future in futures:
                if not future.done():
                    future.set_result(value)

    def stats(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "batched_keys": self.batched_keys,
            "pending": len(self._pending),
        }
