"""Polymorphic ``Candidate`` predicates (Section 4.3).

A :class:`CandidateRule` decides, for a pair of nodes inside one block,
whether a link of its class must be created.  The framework stays
problem-aware through these pluggable implementations:

* :class:`FamilyLinkCandidate` — Bayesian classification of personal
  links (Algorithm 7 generalised to any family link class);
* :class:`ControlCandidate` — company control (Algorithm 5 / Def 2.3);
* :class:`CloseLinkCandidate` — close links (Algorithm 6 / Def 2.6).

Control and close links are *global* properties, so those rules memoise
whole-graph analyses and answer pair queries from the cache; the cache is
invalidated when the augmentation loop mutates the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from ..graph.company_graph import COMPANY, PERSON, CompanyGraph
from ..graph.property_graph import Node, NodeId, PropertyGraph
from ..linkage.bayes import BayesianLinkClassifier
from ..linkage.training import default_classifiers
from ..ownership.close_links import CLOSE_LINK_THRESHOLD, close_links
from ..ownership.control import CONTROL_THRESHOLD, controlled_by


class CandidateRule(Protocol):
    """The interface behind Algorithm 1's ``Candidate(p1, p2, c)`` check."""

    link_class: str
    #: Optional rule-specific second-level blocking (the paper's
    #: polymorphic #GenerateBlocks); None falls back to the loop default.
    blocking: Any

    def accepts(self, left: Node, right: Node) -> bool:
        """Cheap type filter: is this pair even eligible for the class?"""
        ...

    def decide(self, graph: PropertyGraph, left: Node, right: Node) -> dict[str, Any] | None:
        """None when no link; otherwise the properties of the new edge."""
        ...

    def invalidate(self) -> None:
        """Drop any per-graph caches (called when the graph changed)."""
        ...


@dataclass
class FamilyLinkCandidate:
    """Bayesian personal-link decision for one family link class."""

    classifier: BayesianLinkClassifier
    threshold: float = 0.5
    blocking: Any = None

    @property
    def link_class(self) -> str:
        return self.classifier.link_class

    def accepts(self, left: Node, right: Node) -> bool:
        return left.label == PERSON and right.label == PERSON

    def decide(self, graph: PropertyGraph, left: Node, right: Node) -> dict[str, Any] | None:
        probability = self.classifier.probability(left.properties, right.properties)
        if probability > self.threshold:
            return {"probability": round(probability, 6)}
        return None

    def invalidate(self) -> None:
        pass  # decision depends on node features only


def default_family_candidates(
    threshold: float = 0.5,
) -> list[FamilyLinkCandidate]:
    """One untrained (prior-default) candidate per family link class."""
    return [
        FamilyLinkCandidate(classifier, threshold)
        for classifier in default_classifiers()
    ]


@dataclass
class ControlCandidate:
    """Company control (Definition 2.3) as a pairwise candidate.

    ``decide(x, y)`` answers from a memoised per-source control closure.
    """

    link_class: str = "control"
    threshold: float = CONTROL_THRESHOLD
    blocking: Any = None
    _cache: dict[NodeId, set[NodeId]] = field(default_factory=dict)

    def accepts(self, left: Node, right: Node) -> bool:
        return left.label in (COMPANY, PERSON) and right.label == COMPANY

    def decide(self, graph: PropertyGraph, left: Node, right: Node) -> dict[str, Any] | None:
        if left.id not in self._cache:
            assert isinstance(graph, CompanyGraph)
            self._cache[left.id] = controlled_by(graph, left.id, self.threshold)
        if right.id in self._cache[left.id]:
            return {}
        return None

    def invalidate(self) -> None:
        self._cache.clear()


@dataclass
class CloseLinkCandidate:
    """Close links (Definition 2.6) as a pairwise candidate.

    Memoises the full close-link relation (with witnesses) on first use.
    """

    link_class: str = "close_link"
    threshold: float = CLOSE_LINK_THRESHOLD
    blocking: Any = None
    _pairs: dict[tuple[NodeId, NodeId], dict[str, Any]] | None = None

    def accepts(self, left: Node, right: Node) -> bool:
        return left.label == COMPANY and right.label == COMPANY

    def decide(self, graph: PropertyGraph, left: Node, right: Node) -> dict[str, Any] | None:
        if self._pairs is None:
            assert isinstance(graph, CompanyGraph)
            self._pairs = {}
            for link in close_links(graph, self.threshold):
                self._pairs.setdefault(
                    (link.x, link.y),
                    {"reason": link.reason, "witness": link.witness, "phi": link.phi},
                )
        return self._pairs.get((left.id, right.id))

    def invalidate(self) -> None:
        self._pairs = None
