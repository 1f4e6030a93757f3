"""Tenant-scoped graph registry: one service, many isolated graphs.

A :class:`GraphRegistry` maps a **tenant id** to its own
:class:`TenantBinding` (snapshot manager + builder + updater).  Every
process that builds snapshots owns one — the single-process service and
the parent of ``serve --workers N`` alike — and it is where a tenant's
builder side is put together: :meth:`GraphRegistry.create` is the one
place a tenant's ``SnapshotBuilder`` is constructed, and the registry
holds the process's one :class:`~repro.service.updates.Persister`, which
every updater it binds persists through.  Pool workers hold a registry
of bare managers (read-only bindings).  The HTTP server routes
``/t/{tenant}/...`` onto the registry while un-prefixed routes keep
working against the *alias* tenant (``default`` unless the service was
seeded under another name).

Isolation contract (the tenant-isolation tests assert it byte-for-byte):

* cache keys carry the tenant (see
  :func:`~repro.service.snapshot.snapshot_key`), so two tenants whose
  graphs collide in node ids *and* snapshot versions can never read each
  other's cached payloads;
* mutations stage and re-augment per tenant — publishing tenant A's next
  version leaves tenant B's version untouched;
* in the worker pool, shared-memory segments carry the tenant in their
  name and the publish/retire protocol, so one ``SO_REUSEPORT`` fleet
  serves all tenants with per-tenant atomic swaps.

Tenant names are restricted to ``[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`` so a
name is always safe inside a URL path segment, a shared-memory segment
name, and a store directory name without escaping.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from ..graph.company_graph import CompanyGraph
from ..telemetry import NULL_TRACER
from .snapshot import (
    DEFAULT_TENANT,
    Snapshot,
    SnapshotBuilder,
    SnapshotConfig,
    SnapshotManager,
)
from .updates import GraphUpdater, Persister

__all__ = [
    "DEFAULT_TENANT",
    "GraphRegistry",
    "TenantBinding",
    "TenantError",
    "UnknownTenantError",
    "validate_tenant",
]

#: A tenant name must survive a URL path segment, a shm segment name,
#: and a directory name unescaped.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


class TenantError(ValueError):
    """A malformed tenant name or an invalid tenant operation (HTTP 400)."""


class UnknownTenantError(LookupError):
    """A tenant id with no binding in the registry (HTTP 404)."""

    def __init__(self, tenant: str):
        super().__init__(f"unknown tenant: {tenant}")
        self.tenant = tenant


def validate_tenant(name: Any) -> str:
    """Return ``name`` if it is a legal tenant id, raise otherwise."""
    if not isinstance(name, str) or not _TENANT_RE.match(name):
        raise TenantError(
            f"bad tenant name {name!r}: must match {_TENANT_RE.pattern}"
        )
    return name


@dataclass
class TenantBinding:
    """Everything one tenant owns inside a service process.

    ``manager`` is the tenant's atomic-swap snapshot holder; ``builder``
    and ``updater`` exist only where this process is the tenant's
    builder (read-only pool workers bind a manager alone).
    """

    name: str
    manager: SnapshotManager
    builder: SnapshotBuilder | None = None
    updater: GraphUpdater | None = None
    created_at: float = field(default_factory=time.time)

    @property
    def version(self) -> int:
        return self.manager.version

    def info(self) -> dict[str, Any]:
        """The admin-surface description of this tenant."""
        payload: dict[str, Any] = {
            "tenant": self.name,
            "version": self.manager.version,
            "created_at": self.created_at,
            "mutable": self.updater is not None,
        }
        try:
            snapshot = self.manager.current
        except RuntimeError:
            payload["nodes"] = payload["edges"] = 0
        else:
            payload["nodes"] = snapshot.graph.node_count
            payload["edges"] = snapshot.graph.edge_count
        return payload


class GraphRegistry:
    """Tenant id -> :class:`TenantBinding`, plus the creation template.

    The registry is the mechanism only — naming policy (which tenant
    un-prefixed routes alias to, which tenant may not be deleted) lives
    with the caller.  ``alias`` records the first tenant bound, which the
    server uses as the target of un-prefixed (legacy) routes.

    ``snapshot_config`` / ``classifiers`` seed the builder of every
    tenant :meth:`create` builds, so a ``PUT /t/{tenant}`` tenant
    augments exactly like the seeded one.  ``persist`` is the durable
    write target ``(snapshot, tenant) -> dict | None`` (``serve --store``
    passes one over ``FrameStore.persist``): every version any bound
    updater publishes goes through it, tenants created over HTTP
    included.
    """

    def __init__(
        self,
        snapshot_config: SnapshotConfig | None = None,
        classifiers: Sequence[Any] | None = None,
        tracer=None,
        persist: Callable[[Snapshot, str], "dict[str, Any] | None"] | None = None,
    ):
        self.snapshot_config = snapshot_config
        self.classifiers = classifiers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.persist = Persister(persist) if persist is not None else None
        self._bindings: dict[str, TenantBinding] = {}
        #: the tenant un-prefixed routes resolve to (first bound wins)
        self.alias: str = DEFAULT_TENANT
        self.created = 0
        self.dropped = 0

    # -- binding lifecycle ---------------------------------------------

    def adopt(
        self,
        name: str,
        manager: SnapshotManager,
        builder: SnapshotBuilder | None = None,
        base_graph: CompanyGraph | None = None,
    ) -> TenantBinding:
        """Bind an existing manager (and optionally its build chain)."""
        validate_tenant(name)
        updater = None
        if builder is not None and base_graph is not None:
            updater = GraphUpdater(
                manager, builder, base_graph,
                tracer=self.tracer, tenant=name, persist=self.persist,
            )
        return self._bind(
            TenantBinding(name=name, manager=manager, builder=builder, updater=updater)
        )

    def _bind(self, binding: TenantBinding) -> TenantBinding:
        if binding.name in self._bindings:
            raise TenantError(f"tenant {binding.name!r} already registered")
        if not self._bindings:
            self.alias = binding.name
        self._bindings[binding.name] = binding
        return binding

    def create(
        self,
        name: str,
        graph: CompanyGraph | None = None,
        start_version: int = 0,
        snapshot: Snapshot | None = None,
        handoff: Callable[[Snapshot, str], None] | None = None,
    ) -> TenantBinding:
        """Put a tenant's builder side together and bind it.

        From a ``graph`` (empty when omitted — the tenant then grows
        through ``/t/{tenant}/mutations``) version ``start_version + 1``
        is built, handed off and persisted by the updater's write path,
        so a created-but-never-mutated tenant survives a restart too.
        From a ``snapshot`` attached from the durable store nothing is
        built or persisted; the builder resumes numbering after
        ``start_version`` — the store's newest, which a rolled-back
        snapshot may be older than.  Safe to call from an executor
        thread; the build itself is synchronous.
        """
        validate_tenant(name)
        if name in self._bindings:
            raise TenantError(f"tenant {name!r} already registered")
        if snapshot is not None:
            graph = snapshot.graph
        elif graph is None:
            graph = CompanyGraph()
        builder = SnapshotBuilder(
            snapshot.config if snapshot is not None else self.snapshot_config,
            classifiers=self.classifiers,
            tracer=self.tracer,
            start_version=start_version,
        )
        manager = SnapshotManager(snapshot)
        updater = GraphUpdater(
            manager, builder, graph,
            tracer=self.tracer, tenant=name, persist=self.persist,
        )
        if snapshot is None:
            updater.publish(graph, handoff=handoff)
        self.created += 1
        # bound only now: a visible tenant always has a version to serve
        return self._bind(
            TenantBinding(name=name, manager=manager, builder=builder, updater=updater)
        )

    def drop(self, name: str) -> TenantBinding:
        """Unbind a tenant; raises :class:`UnknownTenantError` if absent."""
        binding = self._bindings.pop(name, None)
        if binding is None:
            raise UnknownTenantError(name)
        self.dropped += 1
        return binding

    # -- lookup ---------------------------------------------------------

    def get(self, name: str) -> TenantBinding:
        binding = self._bindings.get(name)
        if binding is None:
            raise UnknownTenantError(name)
        return binding

    def peek(self, name: str) -> TenantBinding | None:
        return self._bindings.get(name)

    def names(self) -> list[str]:
        return list(self._bindings)

    def items(self) -> Iterator[tuple[str, TenantBinding]]:
        return iter(list(self._bindings.items()))

    def __contains__(self, name: object) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def stats(self) -> dict[str, Any]:
        return {
            "tenants": len(self._bindings),
            "alias": self.alias,
            "created": self.created,
            "dropped": self.dropped,
            "versions": {n: b.manager.version for n, b in self._bindings.items()},
        }
