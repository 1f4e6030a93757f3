"""End-to-end reasoning pipeline — the "reasoning API" of Section 5.

:class:`ReasoningPipeline` takes a :class:`CompanyGraph`, builds the KG
(extensional component via the Section 3 relational mapping, intensional
component from the Algorithm 2-9 programs), wires the external functions
(`$link_probability`, `$graph_embed_clust`, `$generate_blocks`) and
exposes the per-problem entry points applications call:

* :meth:`control_pairs` — company control (Definition 2.3);
* :meth:`close_link_pairs` — close links (Definition 2.6): the declarative
  program on acyclic graphs, the exact procedural route on cyclic ones,
  where the declarative walk-sum would diverge;
* :meth:`family_links` — Bayesian personal-link detection within blocks;
* :meth:`family_control_pairs` — family control (Definition 2.8);
* :meth:`augment` — everything at once, returning the augmented graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from ..datalog.engine import Engine
from ..datalog.terms import skolem
from ..datalog.vectorized import VectorRuntimeFallback
from ..embeddings.node2vec import EMBEDDING_FEATURES, Node2VecConfig, embed_and_cluster
from ..graph.company_graph import FAMILY, CompanyGraph
from ..graph.property_graph import Node, NodeId
from ..linkage.bayes import BayesianLinkClassifier
from ..linkage.table import PersonTable
from ..linkage.training import default_classifiers
from ..ownership.close_links import close_link_pairs as procedural_close_links
from ..ownership.close_links import is_acyclic
from ..telemetry import NULL_TRACER
from .blocking import BlockingScheme
from .kg import KnowledgeGraph
from .programs import (
    close_link_program,
    control_program,
    family_close_link_program,
    family_control_program,
    family_link_program,
    input_mapping,
    link_creation,
    output_mapping,
)

FAMILY_LINK_CLASSES = ("partner_of", "sibling_of", "parent_of")


@dataclass
class PipelineConfig:
    """Thresholds and clustering configuration of the pipeline."""

    control_threshold: float = 0.5
    close_link_threshold: float = 0.2
    family_probability_threshold: float = 0.5
    first_level_clusters: int = 10
    use_embeddings: bool = True
    node2vec: Node2VecConfig = field(default_factory=Node2VecConfig)
    embedding_features: "tuple[str, ...] | dict[str, float]" = field(
        default_factory=EMBEDDING_FEATURES.copy
    )
    blocking: BlockingScheme = field(default_factory=BlockingScheme.default)


class ReasoningPipeline:
    """Builds the company KG and answers the paper's three problems."""

    def __init__(
        self,
        graph: CompanyGraph,
        config: PipelineConfig | None = None,
        classifiers: Sequence[BayesianLinkClassifier] | None = None,
        tracer=None,
        cluster_assignment: "dict[NodeId, int] | None" = None,
    ):
        self.graph = graph
        self.config = config if config is not None else PipelineConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: first-level cluster assignment computed outside the pipeline
        #: (e.g. by a warm :class:`~repro.embeddings.IncrementalEmbedder`
        #: between snapshot builds); when set it replaces the internal
        #: ``embed_and_cluster`` call of :meth:`_first_level_assignment`
        self.cluster_assignment = cluster_assignment
        #: the engine of the last ``control_pairs(provenance=True)`` run
        self.last_engine: Engine | None = None
        if classifiers is None:
            classifiers = default_classifiers()
        self.classifiers = {c.link_class: c for c in classifiers}
        with self.tracer.span("pipeline.build", nodes=graph.node_count):
            self.kg = KnowledgeGraph(graph)
            self._add_family_member_facts()
            self._register_functions()
            self._install_programs()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _add_family_member_facts(self) -> None:
        """Family membership edges in the PG become family_member EDB facts."""
        edges = list(self.graph.edges(FAMILY))
        if edges:
            self.kg.load("family_member", [[edge.source for edge in edges],
                                           [edge.target for edge in edges]])

    def _register_functions(self) -> None:
        """``$link_probability(class, x, y)`` in both forms, over one
        person table: the scalar form scores a pair of its rows, the
        batch form arrays of them.  An unknown class or an id that is
        not a person scores 0.0 either way."""
        persons = list(self.graph.persons())
        table = PersonTable([dict(node.properties) for node in persons])
        row_of = {skolem("sk_p", (node.id,)): row for row, node in enumerate(persons)}
        # the closures live in the KG this pipeline holds: capturing
        # ``self`` would make a reference cycle
        classifiers = self.classifiers

        def link_probability(link_class: str, x: str, y: str) -> float:
            classifier = classifiers.get(link_class)
            left = row_of.get(x)
            right = row_of.get(y)
            if classifier is None or left is None or right is None:
                return 0.0
            return classifier.probability(table.persons[left], table.persons[right])

        def rows_of(values, codes):
            # called once per morsel of rows: resolve each distinct code
            # through C-level maps, without a Python frame per code
            distinct, inverse = np.unique(codes, return_inverse=True)
            rows = np.fromiter(
                map(row_of.get, map(values.__getitem__, distinct.tolist()), repeat(-1)),
                dtype=np.int64,
                count=len(distinct),
            )
            return rows[inverse.reshape(-1)]

        def link_probability_batch(values, args):
            link_class, xs, ys = args
            if isinstance(link_class, np.ndarray) or not (
                _is_codes(xs) and _is_codes(ys)
            ):
                raise VectorRuntimeFallback(
                    "$link_probability batches (constant class, id, id) only"
                )
            out = np.zeros(len(xs), dtype=np.float64)
            classifier = classifiers.get(link_class)
            if classifier is None:
                return out
            # one lookup per person however many pairs it is in, either side
            left, right = np.split(rows_of(values, np.concatenate([xs, ys])), [len(xs)])
            known = (left >= 0) & (right >= 0)
            out[known] = classifier.probability_batch(table, left[known], right[known])
            return out

        self.kg.register_function(
            "link_probability", link_probability, batch=link_probability_batch
        )

    def _install_programs(self) -> None:
        config = self.config
        self.kg.add_rules("input_mapping", input_mapping(include_families=True))
        self.kg.add_rules("control", control_program(config.control_threshold))
        self.kg.add_rules("close_link", close_link_program(config.close_link_threshold))
        self.kg.add_rules(
            "family_control", family_control_program(config.control_threshold)
        )
        self.kg.add_rules(
            "family_close_link",
            family_close_link_program(config.close_link_threshold),
        )
        self.kg.add_rules(
            "family_links",
            family_link_program(
                FAMILY_LINK_CLASSES,
                threshold=config.family_probability_threshold,
                blocked=True,
            ),
        )
        all_classes = ("control", "close_link") + FAMILY_LINK_CLASSES
        self.kg.add_rules("link_creation", link_creation(all_classes))
        self.kg.add_rules("output_mapping", output_mapping(all_classes))

    # ------------------------------------------------------------------
    # blocking (Algorithm 3 rule 1, computed pipeline-side)
    # ------------------------------------------------------------------

    def _first_level_assignment(self) -> dict[NodeId, int]:
        """``#GraphEmbedClust`` over the pipeline's graph: node -> cluster.

        The assignment handed to the constructor when there is one, else
        the embedder's cold round, else one cluster (no cluster mode)."""
        config = self.config
        if self.cluster_assignment is not None:
            return self.cluster_assignment
        if not config.use_embeddings or config.first_level_clusters <= 1:
            return {node: 0 for node in self.graph.node_ids()}
        with self.tracer.span("embed_cluster", clusters=config.first_level_clusters):
            return embed_and_cluster(
                self.graph,
                config.first_level_clusters,
                config.node2vec,
                feature_properties=config.embedding_features,
                tracer=self.tracer,
            )

    def compute_blocks(self) -> list[tuple[int, object, str]]:
        """(first-level cluster, second-level block, skolem node id) triples."""
        return list(zip(*self._block_columns()))

    def _block_columns(self) -> list[list]:
        """The ``block`` relation as its three columns: first-level
        cluster, second-level block, skolem node id.  A block is held as
        the dense int of its :func:`block_keys` key, numbered in order of
        first sight: the ``fl_*`` rules only join blocks for equality,
        and an int costs less to intern than a key's string."""
        config = self.config
        with self.tracer.span("pipeline.blocking") as span:
            assignment = self._first_level_assignment()
            clusters: list[int] = []
            blocks: list[int] = []
            sk_ids: list[str] = []
            numbers: dict[tuple[int, object], int] = {}
            for node in self.graph.persons():
                keys = block_keys(node, assignment, config.blocking)
                clusters.extend(cluster for cluster, _ in keys)
                blocks.extend(numbers.setdefault(key, len(numbers)) for key in keys)
                sk_ids.extend(repeat(skolem("sk_p", (node.id,)), len(keys)))
            span.set("block_triples", len(sk_ids))
        return [clusters, blocks, sk_ids]

    def _inject_block_facts(self) -> None:
        self.kg.load("block", self._block_columns())

    def register_declarative_blocking(self) -> None:
        """Algorithm 3 rule (1) run *inside* the engine.

        Registers ``$graph_embed_clust`` and ``$generate_blocks`` as
        external functions answering from state computed over the whole
        graph (matching the paper's stateful-aggregation reading) and
        installs the ``blocking_program`` rule, so ``block`` facts are
        derived by the chase instead of injected.  Multi-pass block keys
        are flattened into one key per node here (the declarative rule
        produces a single ``block`` fact per node), so use
        :meth:`reason` with ``with_blocks=True`` when multi-pass recall
        matters; this path exists for fidelity to Algorithm 3.
        """
        from .programs import blocking_program

        config = self.config
        assignment = self._first_level_assignment()
        sk_to_node = {
            skolem("sk_p", (node.id,)): node for node in self.graph.persons()
        }
        sk_to_node.update(
            (skolem("sk_c", (node.id,)), node) for node in self.graph.companies()
        )

        def graph_embed_clust(sk_id: str) -> int:
            node = sk_to_node.get(sk_id)
            return assignment.get(node.id, 0) if node is not None else 0

        def generate_blocks(sk_id: str) -> object:
            node = sk_to_node.get(sk_id)
            if node is None:
                return "__unknown__"
            return _hashable(config.blocking.block_of(node))

        self.kg.register_function("graph_embed_clust", graph_embed_clust)
        self.kg.register_function("generate_blocks", generate_blocks)
        self.kg.add_rules("blocking", blocking_program())

    # ------------------------------------------------------------------
    # reasoning entry points
    # ------------------------------------------------------------------

    def reason(
        self,
        names: list[str] | None = None,
        provenance: bool = False,
        with_blocks: bool = False,
        outputs: Sequence[str] | None = None,
    ) -> Engine:
        """Run the selected rule sets (all, by default) and return the
        engine; with ``outputs``, derive only what those relations need
        (see :meth:`KnowledgeGraph.reason`)."""
        label = "pipeline.reason[" + (",".join(names) if names else "all") + "]"
        with self.tracer.span(label):
            if with_blocks:
                self._inject_block_facts()
            return self.kg.reason(
                names, provenance=provenance, tracer=self.tracer, outputs=outputs
            )

    def control_pairs(self, provenance: bool = False) -> set[tuple[NodeId, NodeId]]:
        """Control pairs (external ids) via the declarative Algorithm 5.

        With ``provenance`` the run's engine stays on as
        :attr:`last_engine`, so its facts can be explained; no other run
        outlives its answer.  Nothing keeps a run's engine past the
        problem method that started it, and nothing in it points back at
        its owner (a column store holds its database's row lists, the
        ``$link_probability`` closures the classifiers), so reference
        counting frees the run's fact store, indexes and columns when
        that method returns."""
        with self.tracer.span("problem.control") as span:
            engine = self.reason(
                ["input_mapping", "control", "link_creation", "output_mapping"],
                provenance=provenance,
                outputs=("control",),
            )
            if provenance:
                self.last_engine = engine
            pairs = {(x, y) for x, y in engine.query("control")}
            span.set("pairs", len(pairs))
            span.record_memory()
        return pairs

    def close_link_pairs(self) -> set[tuple[NodeId, NodeId]]:
        """Close-link pairs: the Datalog program on an acyclic graph, the
        exact accumulated-ownership route on a cyclic one (where the
        program's walk sums would not converge)."""
        mode = "datalog" if is_acyclic(self.graph) else "procedural"
        with self.tracer.span("problem.close_link", mode=mode) as span:
            if mode == "procedural":
                pairs = procedural_close_links(
                    self.graph, self.config.close_link_threshold
                )
            else:
                engine = self.reason(
                    ["input_mapping", "close_link", "link_creation", "output_mapping"],
                    outputs=("close_link",),
                )
                pairs = {(x, y) for x, y in engine.query("close_link")}
            span.set("pairs", len(pairs))
            span.record_memory()
        return pairs

    def family_links(self) -> set[tuple[NodeId, NodeId, str]]:
        """Personal links detected by the Bayesian classifiers inside blocks."""
        with self.tracer.span("problem.family_links") as span:
            engine = self.reason(
                ["input_mapping", "family_links", "link_creation", "output_mapping"],
                with_blocks=True,
                outputs=FAMILY_LINK_CLASSES,
            )
            links: set[tuple[NodeId, NodeId, str]] = set()
            for link_class in FAMILY_LINK_CLASSES:
                for x, y in engine.query(link_class):
                    links.add((x, y, link_class))
            span.set("links", len(links))
            span.record_memory()
        return links

    def family_control_pairs(self) -> set[tuple[NodeId, NodeId]]:
        """(family, company) control pairs via Algorithm 8.

        Requires family nodes/edges in the graph (e.g. added by
        :meth:`materialise_families` after family-link detection).
        """
        with self.tracer.span("problem.family_control") as span:
            engine = self.reason(
                [
                    "input_mapping",
                    "control",
                    "family_control",
                    "link_creation",
                    "output_mapping",
                ],
                outputs=("control",),
            )
            family_ids = {edge.target for edge in self.graph.edges(FAMILY)}
            pairs = {(x, y) for x, y in engine.query("control") if x in family_ids}
            span.set("pairs", len(pairs))
            span.record_memory()
        return pairs

    # ------------------------------------------------------------------
    # augmentation
    # ------------------------------------------------------------------

    def materialise_families(
        self, links: Iterable[tuple[NodeId, NodeId, str]]
    ) -> dict[str, set[NodeId]]:
        """Group linked persons into family nodes on the pipeline's graph.

        Connected components of the detected personal-link relation
        become families: a family node is added with ``family`` edges
        from each member.  Returns family id -> members.
        """
        parent: dict[NodeId, NodeId] = {}

        def find(x: NodeId) -> NodeId:
            parent.setdefault(x, x)
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for x, y, _ in links:
            parent.setdefault(x, x)
            parent.setdefault(y, y)
            parent[find(x)] = find(y)

        groups: dict[NodeId, set[NodeId]] = {}
        for member in parent:
            groups.setdefault(find(member), set()).add(member)

        families: dict[str, set[NodeId]] = {}
        for index, members in enumerate(
            sorted(groups.values(), key=lambda g: sorted(map(str, g)))
        ):
            if len(members) < 2:
                continue
            family_id = f"FAM{index:05d}"
            families[family_id] = members
            if not self.graph.has_node(family_id):
                self.graph.add_node(family_id, "F")
            for member in sorted(members, key=str):
                self.graph.add_edge(member, family_id, FAMILY)
        # refresh the KG facts to include the new membership edges
        self.kg = KnowledgeGraph(self.graph)
        self._add_family_member_facts()
        self._register_functions()
        self._install_programs()
        return families

    def augment(self) -> CompanyGraph:
        """Run all three problems and return a copy of the graph with the
        predicted typed edges added (control / close_link / family links)."""
        with self.tracer.span("pipeline.augment") as span:
            augmented = self.graph.copy()

            def add(x: NodeId, y: NodeId, label: str, **properties) -> None:
                if augmented.has_node(x) and augmented.has_node(y):
                    augmented.add_edge(x, y, label, **properties)

            for x, y, link_class in _ordered(self.family_links()):
                add(x, y, link_class)
            for x, y in _ordered(self.control_pairs()):
                add(x, y, "control")
            for x, y in _ordered(self.close_link_pairs()):
                add(x, y, "close_link")
            span.set("new_edges", augmented.edge_count - self.graph.edge_count)
        return augmented


def _ordered(rows: set[tuple]) -> list[tuple]:
    """A derived relation in the order :meth:`ReasoningPipeline.augment`
    adds it: sorted, so the order and ids of the new edges do not follow
    the process's str-hash seed."""
    return sorted(rows, key=lambda row: tuple(map(str, row)))


def _is_codes(arg: object) -> bool:
    """Is a batch-external argument a column of value codes?"""
    return isinstance(arg, np.ndarray) and arg.dtype == np.int64


def block_keys(
    node: Node, assignment: "dict[NodeId, int] | None", blocking: BlockingScheme
) -> list[tuple[int, object]]:
    """A person's ``(first-level cluster, block)`` keys, as its ``block``
    facts carry them: the cluster from ``assignment`` (missing, or no
    assignment at all, means cluster 0), each block flattened by
    :func:`_hashable`.  Two persons are compared once per key they share.
    """
    cluster = 0 if assignment is None else assignment.get(node.id, 0)
    return [(cluster, _hashable(block)) for block in blocking.blocks_of(node)]


def _hashable(value: object) -> object:
    """Block keys may be tuples of tuples; flatten to a stable string."""
    if isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)
