"""Versioned, read-optimized KG snapshots.

A :class:`Snapshot` is the unit the service reads from: one immutable
view of the company KG with everything the endpoints need precomputed —
the augmentation pipeline's family links, the control closure
(Definition 2.3), the close-link pairs (Definition 2.6) and the
beneficial-owner index.  It holds one graph, the extensional one; what
reasoning derived stays in three row lists, indexed by endpoint for
``/neighbors``.  Snapshots are identified by a
monotonically increasing version; :class:`SnapshotManager` swaps the
current snapshot with one reference assignment so readers never block
and never observe a half-built state.

:class:`SnapshotBuilder` owns the version counter and — when embeddings
are enabled — a warm :class:`~repro.embeddings.IncrementalEmbedder`, so
rebuilds triggered by small mutation deltas pay the dirty-region price
instead of the full node2vec bill.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from ..core.blocking import BlockingScheme
from ..core.pipeline import PipelineConfig, ReasoningPipeline, block_keys
from ..graph.columnar import intern_sort_key
from ..graph.company_graph import PERSON, CompanyGraph
from ..graph.property_graph import Edge, Node, NodeId
from ..linkage.bayes import BayesianLinkClassifier
from ..ownership.close_links import (
    CLOSE_LINK_THRESHOLD,
    _PhiRows,
    close_link_pairs,
    links_from_phi,
)
from ..ownership.control import CONTROL_THRESHOLD, control_closure, controlled_by
from ..ownership.ubo import (
    UBO_THRESHOLD,
    BeneficialOwner,
    assemble_beneficial_owners,
    beneficial_owner_rows,
)
from ..storage.layout import decode_rows, encode_rows
from ..telemetry import NULL_TRACER
from .incremental import (
    DeltaBatch,
    affected_sources,
    patch_rows,
    shareholding_ancestors,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..embeddings.incremental import IncrementalEmbedder

#: The tenant un-prefixed routes and single-graph callers resolve to.
#: Lives here (not in ``registry``) so the cache-key helper below can use
#: it without an import cycle — ``registry`` imports this module.
DEFAULT_TENANT = "default"


@dataclass
class SnapshotConfig:
    """What a snapshot precomputes and how the pipeline runs inside it.

    The precomputed relations are at the paper's thresholds
    (:data:`~repro.ownership.control.CONTROL_THRESHOLD`,
    :data:`~repro.ownership.close_links.CLOSE_LINK_THRESHOLD`,
    :data:`~repro.ownership.ubo.UBO_THRESHOLD`); a request passing its
    own ``threshold`` computes from the graph instead.
    """

    #: run personal-link detection and add the typed edges to the served
    #: graph; False serves the extensional graph plus ownership analytics
    augment: bool = True
    #: with ``use_embeddings``, the k of the first-level clustering; the
    #: embedding itself is node2vec's one default, as everywhere else
    first_level_clusters: int = 1
    use_embeddings: bool = False
    #: keep the per-source rows of each build so the next one patches
    #: them from its accepted delta batch; False keeps no state between
    #: builds, so every build starts from the empty state
    incremental: bool = True


#: The snapshot's derived relations as lists in the canonical row order:
#: ``(family_rows, control_rows, close_rows)``.
Rows = tuple[
    list[tuple[NodeId, NodeId, str]],
    list[tuple[NodeId, NodeId]],
    list[tuple[NodeId, NodeId]],
]


def pair_key(row: Sequence) -> tuple:
    """The canonical order of a derived row ``(x, y, *rest)``: by
    ``(str(x), str(y))``, ids whose strings collide (``1`` and ``"1"``)
    told apart by :func:`~repro.graph.columnar.intern_sort_key`, then
    by the rest — so the order never depends on set iteration, and for
    string ids it is plain tuple order."""
    x, y = row[0], row[1]
    return (str(x), str(y), intern_sort_key(x), intern_sort_key(y), *row[2:])


def sort_rows(rows: Iterable[tuple]) -> list[tuple]:
    """``rows`` sorted by :func:`pair_key`.  Rows whose ids are all
    strings sort as plain tuples — the same order at less than half the
    cost of building the key, which custom-threshold reads pay per
    request."""
    rows = list(rows)
    if all(type(row[0]) is str and type(row[1]) is str for row in rows):
        rows.sort()
    else:
        rows.sort(key=pair_key)
    return rows


def canonical_rows(
    family_links: Iterable[tuple[NodeId, NodeId, str]],
    control: Iterable[tuple[NodeId, NodeId]],
    close_links: Iterable[tuple[NodeId, NodeId]],
) -> Rows:
    """The three derived relations sorted into the one order everything
    downstream uses (:func:`pair_key`): the payloads, the row-state
    columns of both codecs (:func:`repro.storage.layout.encode_rows`)
    and the derived entries of the ``out`` / ``in`` lists of
    ``/neighbors``."""
    return sort_rows(family_links), sort_rows(control), sort_rows(close_links)


class Snapshot:
    """One immutable view of the KG with its derived relations.

    All mutating happens *before* the snapshot is handed to the manager;
    afterwards every method is a read (custom-threshold queries compute
    on private data and leave the snapshot untouched), so a snapshot can
    be shared freely between the event loop and executor threads.

    Each derived relation is held once, as a list in canonical order
    (:func:`canonical_rows`): the payloads list it as it is, the codecs
    encode it, and ``/neighbors`` indexes it by endpoint.  A snapshot
    builds no :class:`~repro.graph.columnar.GraphFrame`; a
    custom-threshold query that needs one builds it from the graph.
    """

    def __init__(
        self,
        version: int,
        graph: CompanyGraph,
        config: SnapshotConfig,
        rows: Rows,
        ubo: dict[NodeId, list[BeneficialOwner]],
        built_s: float,
        warm: bool = False,
        incremental: bool = False,
    ):
        self.version = version
        #: whether this version was built by patching the previous one
        self.incremental = incremental
        self.graph = graph
        self.config = config
        #: the three relations as lists in canonical order
        self.family_rows, self.control_rows, self.close_rows = rows
        self.ubo = ubo
        self.built_s = built_s
        self.warm = warm
        self.created_at = time.time()
        #: node -> ``[(other end, label), ...]`` over the derived rows in
        #: row order: family links, then ``control``, then ``close_link``
        self._derived_out: dict[NodeId, list[tuple[NodeId, str]]] = {}
        self._derived_in: dict[NodeId, list[tuple[NodeId, str]]] = {}
        for labelled in (
            self.family_rows,
            ((x, y, "control") for x, y in self.control_rows),
            ((x, y, "close_link") for x, y in self.close_rows),
        ):
            for x, y, label in labelled:
                self._derived_out.setdefault(x, []).append((y, label))
                self._derived_in.setdefault(y, []).append((x, label))
        self._row_columns: tuple[int, tuple] | None = None

    def row_columns(self) -> tuple[dict[str, Any], list[str]]:
        """The row state as code columns over the graph's node order
        (:func:`repro.storage.layout.encode_rows`), encoded once per graph
        generation: the shared-memory codec and the durable store both
        read this, in that order, on every pool publish."""
        generation = self.graph.generation
        cached = self._row_columns
        if cached is None or cached[0] != generation:
            cached = self._row_columns = (generation, encode_rows(self))
        return cached[1]

    @classmethod
    def from_columns(
        cls,
        version: int,
        graph: CompanyGraph,
        views: dict[str, Any],
        meta: dict[str, Any],
        built_s: float,
    ) -> "Snapshot":
        """Rehydrate a snapshot from its decoded base graph, its row-state
        columns and the object metadata the codec carried (``config``,
        ``family_classes``, ``created_at``, ``warm``, ``incremental``) —
        the shared tail of the shared-memory and the store attach.  Both
        codecs carry only what reasoning derived, each node coded by its
        position in ``graph.node_ids()``."""
        control_rows, close_rows, family_rows, ubo = decode_rows(
            views, list(graph.node_ids()), meta["family_classes"]
        )
        snapshot = cls(
            version=version,
            graph=graph,
            config=meta["config"],
            rows=(family_rows, control_rows, close_rows),
            ubo=ubo,
            built_s=built_s,
            warm=meta["warm"],
            incremental=meta["incremental"],
        )
        snapshot.created_at = meta["created_at"]
        return snapshot

    # ------------------------------------------------------------------
    # endpoint payloads (all JSON-ready)
    # ------------------------------------------------------------------

    def control_payload(
        self, source: NodeId | None = None, threshold: float | None = None
    ) -> dict[str, Any]:
        t = CONTROL_THRESHOLD if threshold is None else threshold
        if t == CONTROL_THRESHOLD:
            if source is not None:
                rows = [
                    (source, y)
                    for y, derived_label in self._derived_out.get(source, ())
                    if derived_label == "control"
                ]
            else:
                rows = self.control_rows
        elif source is not None:
            rows = sort_rows((source, y) for y in controlled_by(self.graph, source, t))
        else:
            rows = sort_rows(control_closure(self.graph, threshold=t))
        pairs = [[x, y] for x, y in rows]
        return {
            "version": self.version,
            "threshold": t,
            "source": source,
            "count": len(pairs),
            "pairs": pairs,
        }

    def close_links_payload(self, threshold: float | None = None) -> dict[str, Any]:
        t = CLOSE_LINK_THRESHOLD if threshold is None else threshold
        if t == CLOSE_LINK_THRESHOLD:
            links = self.close_rows
        else:
            links = sort_rows(close_link_pairs(self.graph, t))
        pairs = [[x, y] for x, y in links if str(x) <= str(y)]
        return {
            "version": self.version,
            "threshold": t,
            "count": len(pairs),
            "pairs": pairs,
        }

    def family_payload(self) -> dict[str, Any]:
        links = [[x, y, cls] for x, y, cls in self.family_rows]
        return {"version": self.version, "count": len(links), "links": links}

    def ubo_payloads(
        self, companies: Sequence[NodeId], threshold: float | None = None
    ) -> dict[NodeId, dict[str, Any]]:
        """Beneficial-owner payloads for a *batch* of companies.

        At the snapshot's default threshold this reads the precomputed
        index; at a custom threshold it computes the rows of the persons
        that reach a company of the batch through shareholdings — the
        only ones that can own or control it — once for the whole batch,
        the reason the server micro-batches ``/ubo/{id}`` point lookups.
        """
        t = UBO_THRESHOLD if threshold is None else threshold
        if t == UBO_THRESHOLD:
            owners_of = {c: self.ubo.get(c, []) for c in companies}
        else:
            graph = self.graph
            persons = [
                node
                for node in shareholding_ancestors(graph, companies)
                if graph.node(node).label == PERSON
            ]
            integrated, controlled = beneficial_owner_rows(graph, persons=persons)
            index = assemble_beneficial_owners(graph, integrated, controlled, t)
            owners_of = {c: index.get(c, []) for c in companies}
        return {
            company: {
                "version": self.version,
                "company": company,
                "threshold": t,
                "owners": [
                    {
                        "person": owner.person,
                        "integrated_share": round(owner.integrated_share, 6),
                        "controls": owner.controls,
                        "basis": owner.basis,
                    }
                    for owner in owners
                ],
            }
            for company, owners in owners_of.items()
        }

    def neighbors_payload(
        self, node_id: NodeId, depth: int = 1, label: str | None = None
    ) -> dict[str, Any]:
        """One node with its incident edges, extensional and derived."""
        node = self.graph.node(node_id)
        payload: dict[str, Any] = {
            "version": self.version,
            "id": node_id,
            "label": node.label,
            "properties": dict(node.properties),
            "out": [
                {"target": y, "label": edge_label, "properties": dict(properties)}
                for y, edge_label, properties in self._incident(node_id, label)
            ],
            "in": [
                {"source": x, "label": edge_label, "properties": dict(properties)}
                for x, edge_label, properties in self._incident(node_id, label, incoming=True)
            ],
        }
        if depth > 1:
            payload["reachable"] = sorted(self._reachable(node_id, label, depth), key=str)
        return payload

    def _incident(
        self, node_id: NodeId, label: str | None, incoming: bool = False
    ) -> Iterator[tuple[NodeId, str | None, dict[str, Any]]]:
        """``(other end, label, properties)`` per edge leaving (with
        ``incoming``: entering) ``node_id``, optionally of one label: the
        base graph's edges, then the derived rows in row order."""
        if incoming:
            for edge in self.graph.in_edges(node_id, label):
                yield edge.source, edge.label, edge.properties
            derived = self._derived_in
        else:
            for edge in self.graph.out_edges(node_id, label):
                yield edge.target, edge.label, edge.properties
            derived = self._derived_out
        for other, derived_label in derived.get(node_id, ()):
            if label is None or derived_label == label:
                yield other, derived_label, {}

    def _reachable(self, node_id: NodeId, label: str | None, depth: int) -> set[NodeId]:
        """Nodes within ``depth`` hops of ``node_id`` along out-edges."""
        frontier = {node_id}
        visited = {node_id}
        for _ in range(depth):
            next_frontier: set[NodeId] = set()
            for current in frontier:
                for successor, _, _ in self._incident(current, label):
                    if successor not in visited:
                        visited.add(successor)
                        next_frontier.add(successor)
            frontier = next_frontier
            if not frontier:
                break
        visited.discard(node_id)
        return visited

    def stats_payload(self) -> dict[str, Any]:
        graph = self.graph
        return {
            "version": self.version,
            "warm_build": self.warm,
            "incremental_build": self.incremental,
            "built_s": round(self.built_s, 4),
            "created_at": self.created_at,
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "companies": sum(1 for _ in graph.companies()),
            "persons": sum(1 for _ in graph.persons()),
            "augmented_edges": (
                len(self.family_rows) + len(self.control_rows) + len(self.close_rows)
            ),
            "control_pairs": len(self.control_rows),
            "close_link_pairs": len(self.close_rows),
            "family_links": len(self.family_rows),
            "companies_with_ubo": len(self.ubo),
        }


@dataclass
class _BuilderState:
    """Per-source rows of the last successful build — the patch base.

    ``graph``/``generation`` identify the exact graph object and version
    the rows were derived from; a delta batch is only applied on top of
    them when its recorded base matches both (the *chain check*).  Any
    mismatch — first build, escape hatch, failed rebuild, out-of-band
    mutation — patches the empty state instead, with every source
    affected.
    """

    graph: CompanyGraph | None = None
    generation: int = -1
    #: source -> the nodes it controls (every node)
    control_rows: dict[NodeId, set[NodeId]] = field(default_factory=dict)
    #: source -> ``Phi(source, ·)`` (every node)
    phi_rows: dict[NodeId, dict[NodeId, float]] = field(default_factory=dict)
    #: person -> integrated ownership (persons only)
    integrated: dict[NodeId, dict[NodeId, float]] = field(default_factory=dict)
    family_links: set[tuple[NodeId, NodeId, str]] = field(default_factory=set)
    assignment: "dict[NodeId, int] | None" = None


class SnapshotBuilder:
    """Builds successive snapshot versions from company graphs.

    Holds the monotonically increasing version counter, the warm
    embedder state and — when ``config.incremental`` — the per-source
    row state of the previous build.  Every build derives each relation
    once, by patching: a build fed a
    :class:`~repro.service.incremental.DeltaBatch` that chains onto the
    previous one re-derives the rows of the sources that reach the
    delta; any other build patches the empty state with every source
    affected.  ``build`` is synchronous and CPU-bound by design — the
    service runs it in an executor thread while the event loop keeps
    serving the previous snapshot.  Calls must be serialized by the
    caller (the updater holds a lock); the builder itself is not
    re-entrant.
    """

    def __init__(
        self,
        config: SnapshotConfig | None = None,
        classifiers: Sequence[BayesianLinkClassifier] | None = None,
        tracer=None,
        start_version: int = 0,
    ):
        self.config = config if config is not None else SnapshotConfig()
        self.classifiers = classifiers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # ``start_version`` seeds the counter when the service resumes
        # from a durable store: the first build then continues the
        # persisted history instead of colliding with it.
        self._version = start_version
        self._state: _BuilderState | None = None
        self._embedder: IncrementalEmbedder | None = None
        if self.config.use_embeddings and self.config.first_level_clusters > 1:
            self._embedder = self._fresh_embedder()

    def _fresh_embedder(self) -> IncrementalEmbedder:
        # imported here: without warm clustering no process loads the
        # embedder, its skip-gram trainer or its walk kernel
        from ..embeddings.incremental import IncrementalEmbedder
        from ..embeddings.node2vec import EMBEDDING_FEATURES

        return IncrementalEmbedder(
            self.config.first_level_clusters,
            feature_properties=EMBEDDING_FEATURES,
            tracer=self.tracer,
        )

    @property
    def version(self) -> int:
        """The last version built (0 before the first build)."""
        return self._version

    def reset_incremental(self) -> None:
        """Drop all warm state; the next build runs fully cold.

        Called by the updater after a failed rebuild: a build that died
        halfway may have advanced the warm embedder against a graph that
        will never be published, so both the row state and the embedder
        are discarded.
        """
        self._state = None
        if self._embedder is not None:
            self._embedder = self._fresh_embedder()

    def _family_links(
        self,
        graph: CompanyGraph,
        pipeline_config: PipelineConfig,
        assignment: "dict[NodeId, int] | None" = None,
    ) -> set[tuple[NodeId, NodeId, str]]:
        return ReasoningPipeline(
            graph,
            pipeline_config,
            classifiers=self.classifiers,
            tracer=self.tracer,
            cluster_assignment=assignment,
        ).family_links()

    def _patch_family_links(
        self,
        graph: CompanyGraph,
        links: set[tuple[NodeId, NodeId, str]],
        touched: set[NodeId],
        assignment: "dict[NodeId, int] | None",
        blocking: BlockingScheme,
    ) -> tuple[set[tuple[NodeId, NodeId, str]], int]:
        """The previous build's family ``links`` patched for the
        ``touched`` persons, and the number of persons the patch read.

        A pair is linked when it shares a block and scores above the
        threshold, and both read only the pair's own properties and
        clusters.  So every link with no touched end carries over, and
        every link with a touched end is a pair of a touched person and
        a block-mate: the detection program re-runs over those pairs
        (:func:`_family_scope`), on edge-free person nodes — the
        ``fl_*`` rules read nothing else.
        """
        if not touched:
            return links, 0
        kept = {link for link in links if link[0] not in touched and link[1] not in touched}
        scope = _family_scope(graph, touched, assignment, blocking)
        if not scope:
            return kept, 0
        persons = CompanyGraph()
        for node, _keys in scope.values():
            persons.add_node(node.id, PERSON, **node.properties)
        found = self._family_links(
            persons,
            PipelineConfig(
                first_level_clusters=1,
                use_embeddings=False,
                blocking=BlockingScheme({PERSON: lambda node: scope[node.id][1]}),
            ),
        )
        return kept | found, len(scope)

    def build(
        self,
        graph: CompanyGraph,
        new_edges: Sequence[Edge] | None = None,
        delta: DeltaBatch | None = None,
    ) -> Snapshot:
        """Build the next snapshot version from ``graph``.

        ``new_edges`` are the shareholding edges added since the previous
        build; when provided (and embeddings are on) the warm embedder
        re-embeds only the dirty region.  Pass ``None`` after removals —
        the warm-embedding path only models additions.

        ``delta`` is the full :class:`DeltaBatch` of the accepted
        mutation batch.  When it chains onto the previous build (its
        base is the exact graph object and generation the last state
        was derived from) and ``config.incremental`` is on, only the rows
        of sources that reach the delta, and the family links of the
        persons it touches, are re-derived; otherwise every row is
        derived, from the empty state.
        """
        started = time.perf_counter()
        version = self._version + 1
        config = self.config
        warm = bool(new_edges) and self._embedder is not None
        state = self._state
        incremental = (
            state is not None
            and delta is not None
            and delta.base is state.graph
            and delta.base_generation == state.generation
        )
        with self.tracer.span(
            "snapshot.build", version=version, incremental=incremental
        ) as span:
            if incremental:
                with self.tracer.span("snapshot.affected_sources"):
                    affected = affected_sources(delta, state.graph, graph)
                    span.set("affected_sources", len(affected))
            else:
                state = _BuilderState()
                affected = list(graph.node_ids())

            assignment = None
            if self._embedder is not None:
                with self.tracer.span("snapshot.embed", warm=warm):
                    assignment = self._embedder.embed(
                        graph, new_edges=list(new_edges) if warm else None
                    )

            family_links: set[tuple[NodeId, NodeId, str]] = set()
            if config.augment:
                pipeline_config = PipelineConfig(
                    first_level_clusters=config.first_level_clusters,
                    use_embeddings=config.use_embeddings,
                )
                if incremental:
                    touched = delta.touched_persons() | _moved_persons(
                        graph, state.assignment, assignment
                    )
                    family_links, scope = self._patch_family_links(
                        graph,
                        state.family_links,
                        touched,
                        assignment,
                        pipeline_config.blocking,
                    )
                    span.set("family_touched", len(touched))
                    span.set("family_scope", scope)
                else:
                    persons = sum(1 for _ in graph.persons())
                    family_links = self._family_links(graph, pipeline_config, assignment)
                    span.set("family_touched", persons)
                    span.set("family_scope", persons)

            # one ownership-row kernel per build: a row's floats do not
            # depend on which other rows share it
            ownership = _PhiRows(graph)
            with self.tracer.span("snapshot.control"):
                c_rows = patch_rows(
                    state.control_rows,
                    graph,
                    affected,
                    lambda source: controlled_by(graph, source),
                )
            with self.tracer.span("snapshot.close_links"):
                p_rows = patch_rows(state.phi_rows, graph, affected, ownership.row)
                company_ids = {node.id for node in graph.companies()}
                # a pair can be linked on more than one condition
                close = {
                    (link.x, link.y)
                    for link in links_from_phi(p_rows, company_ids)
                }
            with self.tracer.span("snapshot.ubo"):
                # a person's controlled set is its control row
                integrated = patch_rows(
                    state.integrated, graph, affected, ownership.integrated, PERSON
                )
                ubo = assemble_beneficial_owners(graph, integrated, c_rows)

            with self.tracer.span("snapshot.canonical_rows"):
                rows = canonical_rows(
                    family_links,
                    ((x, y) for x, targets in c_rows.items() for y in targets),
                    close,
                )

            span.set("control_pairs", len(rows[1]))
            span.set("close_link_pairs", len(rows[2]))
            span.set("family_links", len(family_links))

        if config.incremental:
            self._state = _BuilderState(
                graph=graph,
                generation=graph.generation,
                control_rows=c_rows,
                phi_rows=p_rows,
                integrated=integrated,
                family_links=family_links,
                assignment=assignment,
            )
        self._version = version
        return Snapshot(
            version=version,
            graph=graph,
            config=config,
            rows=rows,
            ubo=ubo,
            built_s=time.perf_counter() - started,
            warm=warm,
            incremental=incremental,
        )


def _moved_persons(
    graph: CompanyGraph,
    before: "dict[NodeId, int] | None",
    after: "dict[NodeId, int] | None",
) -> set[NodeId]:
    """The persons of ``graph`` whose first-level cluster differs between
    two assignments (``None`` and a missing node both mean cluster 0,
    as in :func:`~repro.core.pipeline.block_keys`)."""
    if before == after:
        return set()
    before, after = before or {}, after or {}
    return {
        node.id
        for node in graph.persons()
        if before.get(node.id, 0) != after.get(node.id, 0)
    }


#: A block of a touched person re-scores pair by pair while its untouched
#: members number at least this many times its touched ones, and as a
#: whole below that.  Each pair key adds two ``block`` facts, which cost
#: far more than a compared pair; with copies added into the largest
#: block of 5 000 generated persons (1 824 members) the two plans cost
#: the same at about 105 copies, a ratio of 17.
PAIR_KEYS_BELOW = 16


def _family_scope(
    graph: CompanyGraph,
    touched: set[NodeId],
    assignment: "dict[NodeId, int] | None",
    blocking: BlockingScheme,
) -> dict[NodeId, tuple[Node, list[int]]]:
    """The persons of ``graph`` that share a block with a touched person,
    each with the block keys of a run that compares every pair with a
    touched end, numbered densely in order of first sight.

    A block is a :func:`block_keys` key, as the pipeline injects it.  In
    a block with few touched members, they share one key and each
    touched–untouched pair gets a key of its own: every such pair is
    compared once per block it shares, as in a cold run, and two
    untouched persons never meet.  A block with many touched members
    (see :data:`PAIR_KEYS_BELOW`) keeps one key and is compared whole,
    as in a cold run — its untouched pairs find links that are kept
    anyway.  Either way a block costs at most about what it costs in a
    cold run.
    """
    wanted: set[tuple[int, object]] = set()
    for person in touched:
        if graph.is_person(person):
            wanted.update(block_keys(graph.node(person), assignment, blocking))
    if not wanted:
        return {}
    scope: dict[NodeId, tuple[Node, list[int]]] = {}
    members: dict[tuple[int, object], tuple[list[NodeId], list[NodeId]]] = {}
    for node in graph.persons():
        shared = [key for key in block_keys(node, assignment, blocking) if key in wanted]
        if shared:
            scope[node.id] = (node, [])
            for key in shared:
                members.setdefault(key, ([], []))[node.id not in touched].append(node.id)
    number = 0  # each key of the run: a dense int, in order of first sight
    for hit, rest in members.values():
        if len(rest) < PAIR_KEYS_BELOW * len(hit):
            for person in hit + rest:
                scope[person][1].append(number)
            number += 1
            continue
        for person in hit:
            scope[person][1].append(number)
        number += 1
        for person in hit:
            for other in rest:
                scope[person][1].append(number)
                scope[other][1].append(number)
                number += 1
    return scope


class SnapshotManager:
    """Holds the currently served snapshot; publish is an atomic swap.

    Reads (``current``) are a single attribute load — safe from any
    thread, never blocking.  ``publish`` enforces version monotonicity
    under a lock (builds run in executor threads) and records how long
    the swap itself took, which the benchmark reports as the
    snapshot-swap pause.
    """

    def __init__(self, snapshot: Snapshot | None = None):
        self._lock = threading.Lock()
        self._current = snapshot
        self.swaps = 0
        self.last_swap_pause_s = 0.0

    @property
    def current(self) -> Snapshot:
        snapshot = self._current
        if snapshot is None:
            raise RuntimeError("no snapshot published yet")
        return snapshot

    @property
    def version(self) -> int:
        snapshot = self._current
        return 0 if snapshot is None else snapshot.version

    def publish(self, snapshot: Snapshot) -> Snapshot:
        """Atomically make ``snapshot`` the served version."""
        with self._lock:
            started = time.perf_counter()
            current = self._current
            if current is not None and snapshot.version <= current.version:
                raise ValueError(
                    f"snapshot version {snapshot.version} is not newer than "
                    f"served version {current.version}"
                )
            self._current = snapshot
            self.swaps += 1
            self.last_swap_pause_s = time.perf_counter() - started
        return snapshot


def snapshot_key(
    version: int, endpoint: str, params: Iterable[Any], tenant: str = DEFAULT_TENANT
) -> tuple[str, int, str, tuple[Any, ...]]:
    """The canonical cache key: ``(tenant, snapshot_version, endpoint, params)``.

    The tenant leads the key on purpose: two tenants whose graphs collide
    in node ids *and* version numbers (the adversarial case the isolation
    tests construct) still occupy disjoint LRU / single-flight keyspaces.
    """
    return (tenant, version, endpoint, tuple(params))
