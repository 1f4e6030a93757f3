"""Classifier construction and training helpers.

The paper estimates the per-feature probabilities "by observing
P(d(f_x, f_y) < T_f | L) from training data".  Our surrogate database
comes with planted ground truth, so training data is free:
:func:`training_pairs` samples positive pairs from the truth and *hard*
negatives from the same surname blocks (random negatives would be too
easy and yield over-confident u-probabilities).
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from .bayes import BayesianLinkClassifier
from .features import (
    LINK_CLASSES,
    PARENT_OF,
    default_feature_specs,
    parent_direction,
)
from .table import PersonTable

PersonFeatures = dict[str, Any]
LabelledPair = tuple[tuple[PersonFeatures, PersonFeatures], bool]


def default_classifiers(prior: float = 0.1) -> list[BayesianLinkClassifier]:
    """Untrained classifiers for every family link class (with directions)."""
    classifiers = []
    for link_class, specs in default_feature_specs().items():
        direction = parent_direction if link_class == PARENT_OF else None
        classifiers.append(
            BayesianLinkClassifier(link_class, specs, prior=prior, direction=direction)
        )
    return classifiers


def training_pairs(
    persons: dict[str, PersonFeatures],
    true_links: set[tuple[str, str, str]],
    link_class: str,
    negatives_per_positive: int = 3,
    seed: int = 0,
) -> list[LabelledPair]:
    """Labelled (pair, is_link) examples for one link class.

    Positives are the ground-truth pairs of the class; negatives are
    mostly uniform random pairs (so the u-probabilities reflect the
    population, as in Fellegi-Sunter estimation) with a minority of
    same-surname hard negatives.
    """
    return [
        ((persons[x], persons[y]), label)
        for x, y, label in _draw_examples(
            _Population(persons), true_links, link_class, negatives_per_positive, seed
        )
    ]


class _Population:
    """What :func:`_draw_examples` samples from, built once per set of
    persons: the persons, their ids in sorted order, and the ids by
    lower-cased surname (with the surnames as a list, in first-seen
    order)."""

    def __init__(self, persons: dict[str, PersonFeatures]):
        self.persons = persons
        self.ids = sorted(persons)
        self.by_surname: dict[str, list[str]] = {}
        for person_id, features in persons.items():
            surname = str(features.get("surname") or "").lower()
            self.by_surname.setdefault(surname, []).append(person_id)
        self.surnames = list(self.by_surname)


def _draw_examples(
    population: _Population,
    true_links: set[tuple[str, str, str]],
    link_class: str,
    negatives_per_positive: int,
    seed: int,
) -> list[tuple[str, str, bool]]:
    """The (left id, right id, is_link) examples of :func:`training_pairs`."""
    rng = random.Random(seed)
    persons = population.persons
    linked_pairs = {(x, y) for x, y, _ in true_links}
    examples = [
        (x, y, True)
        for x, y, c in true_links
        if c == link_class and x in persons and y in persons
    ]

    wanted_negatives = len(examples) * negatives_per_positive
    attempts = 0
    negatives = 0
    while negatives < wanted_negatives and attempts < wanted_negatives * 20:
        attempts += 1
        if rng.random() < 0.2 and population.surnames:
            bucket = population.by_surname[rng.choice(population.surnames)]
            if len(bucket) < 2:
                continue
            x, y = rng.sample(bucket, 2)
        else:
            if len(population.ids) < 2:
                break
            x, y = rng.sample(population.ids, 2)
        if (x, y) in linked_pairs or (y, x) in linked_pairs:
            continue
        examples.append((x, y, False))
        negatives += 1
    return examples


def train_classifiers(
    persons: dict[str, PersonFeatures],
    true_links: set[tuple[str, str, str]],
    link_classes: Iterable[str] = LINK_CLASSES,
    prior: float = 0.1,
    negatives_per_positive: int = 3,
    seed: int = 0,
) -> list[BayesianLinkClassifier]:
    """Build and fit one classifier per link class from planted ground truth.

    Every class fits on one :class:`PersonTable` of all ``persons``, so
    the classes share its feature columns and distance memos (sibling
    and parent compare surnames by one Levenshtein memo)."""
    classifiers = []
    specs_by_class = default_feature_specs()
    population = _Population(persons)
    table = PersonTable(list(persons.values()))
    row_of = {person_id: row for row, person_id in enumerate(persons)}
    for link_class in link_classes:
        direction = parent_direction if link_class == PARENT_OF else None
        classifier = BayesianLinkClassifier(
            link_class, specs_by_class[link_class], prior=prior, direction=direction
        )
        examples = _draw_examples(
            population, true_links, link_class, negatives_per_positive, seed
        )
        if examples:
            left, right, labels = zip(*examples)
            classifier.fit_batch(
                table,
                [row_of[x] for x in left],
                [row_of[y] for y in right],
                labels,
                prior=prior,
            )
        classifiers.append(classifier)
    return classifiers


def persons_of(graph) -> dict[str, PersonFeatures]:
    """Convenience: person id -> feature dict for a company graph."""
    return {node.id: node.properties for node in graph.persons()}
