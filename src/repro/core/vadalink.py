"""The Vada-Link KG-augmentation loop (Algorithm 1).

Given a property graph and a set of link classes, the loop:

1. first-level clusters all nodes with node2vec embeddings
   (``GraphEmbedClust``);
2. partitions each cluster into feature blocks (``GenerateBlocks``);
3. inside each block, evaluates every ``Candidate`` rule on every ordered
   node pair, adding the predicted typed edges;
4. repeats — newly added edges change the embeddings, which can regroup
   nodes and surface new candidates (the paper's *reinforcement
   principle*) — until a fixpoint or the round budget.

The returned :class:`AugmentationResult` keeps the counters the paper's
experiments report (comparisons performed vs the quadratic worst case,
edges per class, rounds, elapsed time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..embeddings.incremental import IncrementalEmbedder
from ..embeddings.node2vec import EMBEDDING_FEATURES, Node2VecConfig
from ..graph.property_graph import Edge, Node, PropertyGraph
from ..telemetry import NULL_TRACER
from .blocking import BlockingScheme
from .candidates import CandidateRule


@dataclass
class VadaLinkConfig:
    """Tuning knobs of the augmentation loop."""

    first_level_clusters: int = 10
    use_embeddings: bool = True
    node2vec: Node2VecConfig = field(default_factory=Node2VecConfig)
    #: node features folded into the embedding as token nodes — the paper's
    #: "similarity evaluated on both features and role in the topology"
    embedding_features: "tuple[str, ...] | dict[str, float]" = field(
        default_factory=EMBEDDING_FEATURES.copy
    )
    blocking: BlockingScheme = field(default_factory=BlockingScheme.default)
    max_rounds: int = 3
    recursive: bool = True  # re-embed after each round that added edges


@dataclass
class AugmentationResult:
    """An augmented graph plus the run's accounting."""

    graph: PropertyGraph
    new_edges: list[Edge]
    rounds: int
    comparisons: int
    elapsed_seconds: float
    edges_by_class: dict[str, int] = field(default_factory=dict)

    @property
    def total_new_edges(self) -> int:
        return len(self.new_edges)


class VadaLink:
    """The framework object: candidate rules + configuration."""

    def __init__(
        self,
        candidate_rules: Sequence[CandidateRule],
        config: VadaLinkConfig | None = None,
        tracer=None,
    ):
        if not candidate_rules:
            raise ValueError("VadaLink needs at least one candidate rule")
        self.candidate_rules = list(candidate_rules)
        self.config = config if config is not None else VadaLinkConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------

    def augment(self, graph: PropertyGraph) -> AugmentationResult:
        """Run Algorithm 1 on a copy of ``graph`` and return the result."""
        config = self.config
        augmented = graph.copy()
        predicted_classes = {rule.link_class for rule in self.candidate_rules}
        existing: set[tuple] = {
            (edge.source, edge.target, edge.label)
            for edge in augmented.edges()
            if edge.label in predicted_classes
        }
        new_edges: list[Edge] = []
        edges_by_class: dict[str, int] = {}
        comparisons = 0
        rounds = 0
        started = time.perf_counter()

        for rule in self.candidate_rules:
            rule.invalidate()

        # group rules sharing a blocking scheme so each scheme partitions once
        scheme_groups: list[tuple[BlockingScheme, list[CandidateRule]]] = []
        for rule in self.candidate_rules:
            scheme = getattr(rule, "blocking", None) or config.blocking
            for existing_scheme, rules in scheme_groups:
                if existing_scheme is scheme:
                    rules.append(rule)
                    break
            else:
                scheme_groups.append((scheme, [rule]))

        embedder = self._embedder()
        round_new_edges: list[Edge] | None = None
        changed = True
        while changed and rounds < config.max_rounds:
            changed = False
            rounds += 1
            with self.tracer.span(f"augment.round[{rounds}]") as round_span:
                with self.tracer.span(
                    "embed_cluster", warm=round_new_edges is not None
                ):
                    clusters = self._first_level_clusters(
                        augmented, embedder, round_new_edges
                    )
                round_comparisons = comparisons
                round_edges = len(new_edges)
                # a pair sharing several block keys (multi-pass blocking)
                # is decided at most once per (rule, round)
                seen_pairs: set[tuple] = set()
                with self.tracer.span("candidate_generation"):
                    for scheme, rules in scheme_groups:
                        for cluster_nodes in clusters.values():
                            blocks = scheme.partition(cluster_nodes)
                            for block_nodes in blocks.values():
                                if len(block_nodes) < 2:
                                    continue
                                added, compared = self._augment_block(
                                    augmented, rules, block_nodes, existing,
                                    new_edges, edges_by_class, seen_pairs,
                                )
                                comparisons += compared
                                if added:
                                    changed = True
                round_span.set("comparisons", comparisons - round_comparisons)
                round_span.set("new_edges", len(new_edges) - round_edges)
            round_new_edges = new_edges[round_edges:]
            if changed:
                for rule in self.candidate_rules:
                    rule.invalidate()
            if not config.recursive:
                break

        return AugmentationResult(
            graph=augmented,
            new_edges=new_edges,
            rounds=rounds,
            comparisons=comparisons,
            elapsed_seconds=time.perf_counter() - started,
            edges_by_class=edges_by_class,
        )

    # ------------------------------------------------------------------

    def _embedder(self) -> IncrementalEmbedder | None:
        """One run's ``GraphEmbedClust``: cold in round one, then warm on
        each round's new edges; None in no-cluster mode."""
        config = self.config
        if not config.use_embeddings or config.first_level_clusters <= 1:
            return None
        return IncrementalEmbedder(
            config.first_level_clusters,
            config.node2vec,
            feature_properties=config.embedding_features,
            tracer=self.tracer,
        )

    def _first_level_clusters(
        self,
        graph: PropertyGraph,
        embedder: IncrementalEmbedder | None,
        new_edges: list[Edge] | None = None,
    ) -> dict[int, list[Node]]:
        """``GraphEmbedClust``: node2vec + k-means, or one cluster when off."""
        if embedder is None:
            return {0: list(graph.nodes())}
        assignment = embedder.embed(graph, new_edges=new_edges)
        clusters: dict[int, list[Node]] = {}
        for node in graph.nodes():
            clusters.setdefault(assignment.get(node.id, 0), []).append(node)
        return clusters

    def _augment_block(
        self,
        graph: PropertyGraph,
        rules: list[CandidateRule],
        block_nodes: list[Node],
        existing: set[tuple],
        new_edges: list[Edge],
        edges_by_class: dict[str, int],
        seen_pairs: set[tuple],
    ) -> tuple[bool, int]:
        """Candidate evaluation over all ordered pairs of one block."""
        added = False
        compared = 0
        for rule in rules:
            for i, left in enumerate(block_nodes):
                for j, right in enumerate(block_nodes):
                    if i == j or not rule.accepts(left, right):
                        continue
                    key = (left.id, right.id, rule.link_class)
                    if key in existing:
                        continue
                    pair = (id(rule), left.id, right.id)
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    compared += 1
                    decision = rule.decide(graph, left, right)
                    if decision is None:
                        continue
                    edge = graph.add_edge(left.id, right.id, rule.link_class, **decision)
                    existing.add(key)
                    new_edges.append(edge)
                    edges_by_class[rule.link_class] = (
                        edges_by_class.get(rule.link_class, 0) + 1
                    )
                    added = True
        return added, compared
