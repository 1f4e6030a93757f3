"""Bayesian personal-link classifier with Graham combination.

Following the paper's Section 2 model: for each feature ``f_i`` we need
``p_i = P(L_xy | d(f_i^x, f_i^y) < T_f)`` — the probability of a link
given the feature matches.  By Bayes::

    p_i = P(d < T | L) * P(L) / P(d < T)

where ``P(d < T | L)`` (the *m-probability* in record-linkage jargon) and
the marginal ``P(d < T)`` are estimated from training data, and ``P(L)``
is the prior likelihood of a link.  When a feature does *not* match we
use the complementary evidence ``P(L | d >= T)`` the same way.

The per-feature posteriors combine via Graham's formula (from Bayesian
spam filtering, cited as [25] in the paper)::

    p = (p_1 ... p_n) / (p_1 ... p_n + (1 - p_1) ... (1 - p_n))

A pair is a link candidate when ``p > 0.5`` (Algorithm 7's threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .features import FeatureSpec
from .table import MATCH, MISSING, PersonTable, direction_mask, evidence

#: Laplace-style smoothing applied to estimated probabilities.
_SMOOTHING = 0.5
#: Posteriors are clamped away from 0/1 so one feature cannot veto the rest.
_CLAMP = 1e-4
#: Most features whose base-3 evidence pattern still fits an int64.
_MAX_PATTERN_FEATURES = 39


def graham_combination(probabilities: Sequence[float]) -> float:
    """Combine per-feature posteriors into a single link probability."""
    if not probabilities:
        return 0.0
    product = 1.0
    complement = 1.0
    for p in probabilities:
        p = min(max(p, _CLAMP), 1.0 - _CLAMP)
        product *= p
        complement *= 1.0 - p
    return product / (product + complement)


def _match_rate(digits) -> float:
    """Smoothed share of :data:`~.table.MATCH` among the evidence digits
    that are not :data:`~.table.MISSING`."""
    matched = int(np.count_nonzero(digits == MATCH))
    seen = int(np.count_nonzero(digits != MISSING))
    return (matched + _SMOOTHING) / (seen + 2 * _SMOOTHING)


@dataclass
class FeatureEstimate:
    """Estimated match probabilities of one feature."""

    m: float  # P(d < T | link)
    u: float  # P(d < T | no link)

    def posterior(self, matched: bool, prior: float) -> float:
        """P(link | evidence) for this feature alone."""
        if matched:
            likelihood_link, likelihood_nolink = self.m, self.u
        else:
            likelihood_link, likelihood_nolink = 1.0 - self.m, 1.0 - self.u
        numerator = likelihood_link * prior
        denominator = numerator + likelihood_nolink * (1.0 - prior)
        if denominator == 0.0:
            return 0.5
        return numerator / denominator


@dataclass
class BayesianLinkClassifier:
    """Multi-feature Bayesian classifier for one link class."""

    link_class: str
    features: tuple[FeatureSpec, ...]
    prior: float = 0.1
    estimates: dict[str, FeatureEstimate] = field(default_factory=dict)
    #: Optional asymmetry constraint (e.g. ParentOf requires left older);
    #: pairs violating it get probability 0 regardless of the features.
    direction: Callable[[dict[str, Any], dict[str, Any]], bool] | None = None

    def __post_init__(self) -> None:
        # untrained defaults come from the feature specs (training replaces them)
        for spec in self.features:
            self.estimates.setdefault(
                spec.name, FeatureEstimate(m=spec.m_default, u=spec.u_default)
            )
        #: (parameters, {evidence pattern: score}) of :meth:`probability_batch`
        self._pattern_scores: tuple = (None, {})

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def fit(
        self,
        pairs: Iterable[tuple[dict[str, Any], dict[str, Any]]],
        labels: Iterable[bool],
        prior: float | None = None,
    ) -> "BayesianLinkClassifier":
        """Estimate m/u probabilities (and the prior) from labelled pairs.

        Pass ``prior`` explicitly when the training sample is balanced
        rather than population-representative — the label frequency of a
        balanced sample is not the a-priori link likelihood.
        """
        examples = list(zip(pairs, labels))
        count = len(examples)
        table = PersonTable(
            [left for (left, _), _ in examples] + [right for (_, right), _ in examples]
        )
        rows = np.arange(count, dtype=np.int64)
        return self.fit_batch(
            table, rows, rows + count, [label for _, label in examples], prior
        )

    def fit_batch(
        self, table: PersonTable, left, right, labels, prior: float | None = None
    ) -> "BayesianLinkClassifier":
        """:meth:`fit` on the pairs ``(table.persons[l], table.persons[r])``
        of the row-index arrays, labelled by ``labels``.

        Each feature is compared once over all pairs, by the
        :func:`~.table.evidence` kernels :meth:`probability_batch` scores
        with, so every count is the count of :meth:`FeatureSpec.matches`
        verdicts: m is the smoothed share of matches among the links
        where the feature is present, u the same among the non-links.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        labels = np.asarray(labels, dtype=bool)
        total = len(labels)
        if prior is not None:
            self.prior = prior
        elif total:
            links = int(np.count_nonzero(labels))
            self.prior = (links + _SMOOTHING) / (total + 2 * _SMOOTHING)
        for spec in self.features:
            digits = evidence(spec, table, left, right)
            self.estimates[spec.name] = FeatureEstimate(
                m=_match_rate(digits[labels]), u=_match_rate(digits[~labels])
            )
        return self

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def probability(self, left: dict[str, Any], right: dict[str, Any]) -> float:
        """Link probability for a pair of person feature dicts.

        Per-feature evidence is combined with Graham's formula over the
        *likelihood* posteriors (prior 1/2 — Graham combination is
        exactly naive Bayes with an even prior, so 0.5 is its neutral
        point), and the class prior is folded in once at the end.
        Folding the prior into every p_i instead would shift the neutral
        point and make weak positive evidence count as negative.
        """
        if self.direction is not None and not self.direction(left, right):
            return 0.0
        return self._combine([spec.matches(left, right) for spec in self.features])

    def _combine(self, matches: Sequence[bool | None]) -> float:
        """Link probability from one verdict per feature (None: missing)."""
        posteriors: list[float] = []
        for spec, matched in zip(self.features, matches):
            if matched is None:
                continue  # missing data contributes no evidence
            posteriors.append(self.estimates[spec.name].posterior(matched, 0.5))
        if not posteriors:
            return 0.0
        evidence = graham_combination(posteriors)
        evidence = min(max(evidence, _CLAMP), 1.0 - _CLAMP)
        prior = min(max(self.prior, _CLAMP), 1.0 - _CLAMP)
        odds = (evidence / (1.0 - evidence)) * (prior / (1.0 - prior))
        return odds / (1.0 + odds)

    def probability_batch(self, table: PersonTable, left, right):
        """:meth:`probability` of ``(table.persons[l], table.persons[r])``
        for each pair of the row-index arrays, as a float64 array.

        Features are compared column-wise (see :mod:`.table`); the
        per-feature verdicts pack into a base-3 pattern, and each pattern
        that *occurs* (at most 3**len(features)) is scored once by the
        same :meth:`_combine` the scalar path uses — so every element
        equals the scalar result exactly, not approximately.
        """
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if len(self.features) > _MAX_PATTERN_FEATURES:
            persons = table.persons
            return np.asarray(
                [
                    self.probability(persons[l], persons[r])
                    for l, r in zip(left.tolist(), right.tolist())
                ],
                dtype=np.float64,
            )
        columns = [evidence(spec, table, left, right) for spec in self.features]
        pattern = np.zeros(len(left), dtype=np.int64)
        for digits in columns:
            pattern = pattern * 3 + digits
        occurring, first, inverse = np.unique(
            pattern, return_index=True, return_inverse=True
        )
        # the engine scores a rule's pairs one morsel at a time, and the
        # same few patterns occur in every morsel: keep their scores
        # while the parameters they were combined from stay the same
        state = (self.features, self.prior, tuple(
            (self.estimates[spec.name].m, self.estimates[spec.name].u)
            for spec in self.features
        ))
        if self._pattern_scores[0] != state:
            self._pattern_scores = (state, {})
        known = self._pattern_scores[1]
        verdicts = (None, False, True)  # by digit: MISSING, NO_MATCH, MATCH
        for key, row in zip(occurring.tolist(), first.tolist()):
            if key not in known:
                known[key] = self._combine([verdicts[digits[row]] for digits in columns])
        scores = np.fromiter(
            map(known.__getitem__, occurring.tolist()), dtype=np.float64,
            count=len(occurring),
        )
        probabilities = scores[inverse.reshape(-1)]
        if self.direction is not None:
            probabilities[~direction_mask(self.direction, table, left, right)] = 0.0
        return probabilities

    def predict(
        self, left: dict[str, Any], right: dict[str, Any], threshold: float = 0.5
    ) -> bool:
        """Algorithm 7's decision: probability strictly above the threshold."""
        return self.probability(left, right) > threshold
