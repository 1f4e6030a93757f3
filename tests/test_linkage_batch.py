"""``probability_batch`` must equal the scalar ``probability`` exactly.

The batch path compares features column-wise over a ``PersonTable`` and
scores each occurring evidence pattern with the scalar Bayes code, so
every element must be ``==`` the scalar result — no tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linkage import (
    BayesianLinkClassifier,
    FeatureSpec,
    default_classifiers,
    equality_distance,
    jaro_winkler,
    train_classifiers,
    training_pairs,
)
from repro.linkage.table import PersonTable

SURNAMES = ["Rossi", "rossi", "Rosso", "Russo", "Bianchi", "", 7, 7.0, True, None]
NAMES = ["Mario", "mario", "Anna", "Luca", "", 3, None]
PLACES = ["Roma", "Milano", 1, 1.0, True, "", None]
ADDRESSES = ["via Roma 1", "via Roma 2", "VIA ROMA 1", 12, None]
BIRTH_DATES = [
    "1950-01-01", "1979-06-30", "1980-02-11", "1995-12-31", "2010-05-05",
    1950, 1965, 1980, 1994, 1995, 2010, None,
]

persons = st.fixed_dictionaries(
    {},
    optional={
        "name": st.sampled_from(NAMES),
        "surname": st.sampled_from(SURNAMES),
        "father_name": st.sampled_from(NAMES),
        "birth_date": st.sampled_from(BIRTH_DATES),
        "birth_place": st.sampled_from(PLACES),
        "sex": st.sampled_from(["M", "F", None]),
        "address": st.sampled_from(ADDRESSES),
    },
)


def _initials_agree(left, right):
    """A pair_compare the table has no kernel for."""
    a, b = left.get("name"), right.get("name")
    if a is None or b is None:
        return None
    return str(a)[:1].lower() == str(b)[:1].lower()


def _custom_classifier():
    """A custom distance, a right_feature and a custom pair_compare."""
    return BayesianLinkClassifier(
        "custom",
        (
            FeatureSpec(
                "surname",
                lambda a, b: 1.0 - jaro_winkler(str(a), str(b)),
                0.2,
            ),
            FeatureSpec("name", equality_distance, 0.5, right_feature="father_name"),
            FeatureSpec("initials", equality_distance, 0.5,
                        m_default=0.7, u_default=0.2, pair_compare=_initials_agree),
        ),
        prior=0.2,
        direction=lambda left, right: left.get("sex") != right.get("sex"),
    )


def _all_pairs(count):
    left, right = np.divmod(np.arange(count * count), count)
    return left, right


def _assert_bit_identical(classifier, people):
    table = PersonTable(people)
    left, right = _all_pairs(len(people))
    batch = classifier.probability_batch(table, left, right)
    assert batch.dtype == np.float64
    scalar = [
        classifier.probability(people[l], people[r])
        for l, r in zip(left.tolist(), right.tolist())
    ]
    assert batch.tolist() == scalar


class TestBatchEqualsScalar:
    @given(st.lists(persons, min_size=1, max_size=7))
    @settings(max_examples=120, deadline=None)
    def test_default_classifiers(self, people):
        for classifier in default_classifiers():
            _assert_bit_identical(classifier, people)

    @given(st.lists(persons, min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_custom_distance_and_pair_compare(self, people):
        _assert_bit_identical(_custom_classifier(), people)

    @given(st.lists(persons, min_size=2, max_size=7), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_trained_estimates(self, people, seed):
        ids = {f"p{i}": person for i, person in enumerate(people)}
        truth = {
            ("p0", "p1", "partner_of"), ("p1", "p0", "sibling_of"),
            ("p0", "p1", "parent_of"),
        }
        for classifier in train_classifiers(ids, truth, seed=seed):
            _assert_bit_identical(classifier, people)

    def test_generated_extract(self):
        from repro.datagen import CompanySpec, generate_company_graph
        from repro.linkage import persons_of

        graph, truth = generate_company_graph(
            CompanySpec(persons=40, companies=10, seed=4)
        )
        features = persons_of(graph)
        people = list(features.values())
        for classifier in train_classifiers(features, truth.links):
            _assert_bit_identical(classifier, people)


    @given(st.lists(persons, min_size=2, max_size=7))
    @settings(max_examples=30, deadline=None)
    def test_scores_follow_parameter_changes(self, people):
        # the batch form keeps pattern scores between calls: refitting or
        # editing the estimates in place must not leave stale ones behind
        classifier = _custom_classifier()
        _assert_bit_identical(classifier, people)
        classifier.prior = 0.6
        _assert_bit_identical(classifier, people)
        classifier.estimates["surname"].m = 0.3
        _assert_bit_identical(classifier, people)
        ids = {f"p{i}": person for i, person in enumerate(people)}
        classifier.fit(
            [(ids["p0"], ids["p1"]), (ids["p1"], ids["p0"])], [True, False]
        )
        _assert_bit_identical(classifier, people)


#: values a dict cannot key (and a NaN), on features whose distance
#: takes them: equality, Levenshtein of ``str`` and the paternity compare
_ODD = [["via", "Roma"], ("Roma",), float("nan")]

odd_persons = st.fixed_dictionaries(
    {},
    optional={
        "name": st.sampled_from(NAMES + _ODD),
        "surname": st.sampled_from(SURNAMES + _ODD),
        "father_name": st.sampled_from(NAMES + _ODD),
        "birth_date": st.sampled_from(BIRTH_DATES),
        "birth_place": st.sampled_from(PLACES + _ODD),
        "sex": st.sampled_from(["M", "F", None]),
        "address": st.sampled_from(ADDRESSES + _ODD),
    },
)


def _per_pair_fit(classifier, pairs, labels, prior):
    """(prior, {feature: (m, u)}) counted pair by pair from
    ``FeatureSpec.matches``: the loop ``fit`` ran before it read evidence
    columns."""
    counts = {spec.name: [0, 0, 0, 0] for spec in classifier.features}
    links = total = 0
    for (left, right), label in zip(pairs, labels):
        total += 1
        links += bool(label)
        for spec in classifier.features:
            matched = spec.matches(left, right)
            if matched is None:
                continue
            bucket = counts[spec.name]
            offset = 0 if label else 2
            bucket[offset + 1] += 1
            bucket[offset] += bool(matched)
    if prior is None:
        prior = (links + 0.5) / (total + 1.0) if total else classifier.prior
    return prior, {
        name: ((ml + 0.5) / (sl + 1.0), (mu + 0.5) / (su + 1.0))
        for name, (ml, sl, mu, su) in counts.items()
    }


def _fitted(classifier):
    return classifier.prior, {
        name: (estimate.m, estimate.u) for name, estimate in classifier.estimates.items()
    }


class TestFitEqualsPerPairCount:
    """``fit`` counts matches from one evidence column per feature; every
    prior, m and u must be ``==`` the per-pair count's."""

    @given(
        st.lists(odd_persons, min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()),
                 max_size=14),
        st.sampled_from([None, 0.1]),
    )
    @settings(max_examples=120, deadline=None)
    def test_default_and_custom_classifiers(self, people, draws, prior):
        # pairs reuse the same dicts, as training pairs do
        pairs = [(people[l % len(people)], people[r % len(people)]) for l, r, _ in draws]
        labels = [label for _, _, label in draws]
        for classifier in [*default_classifiers(), _custom_classifier()]:
            expected = _per_pair_fit(classifier, pairs, labels, prior)
            assert _fitted(classifier.fit(pairs, labels, prior)) == expected

    @given(st.lists(odd_persons, min_size=2, max_size=8), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_train_classifiers_shares_one_table(self, people, seed):
        ids = {f"p{i}": person for i, person in enumerate(people)}
        truth = {
            ("p0", "p1", "partner_of"), ("p1", "p0", "sibling_of"),
            ("p0", "p1", "parent_of"), ("p1", f"p{len(people) - 1}", "sibling_of"),
        }
        for classifier in train_classifiers(ids, truth, seed=seed):
            examples = training_pairs(ids, truth, classifier.link_class, seed=seed)
            pairs = [pair for pair, _ in examples]
            labels = [label for _, label in examples]
            assert _fitted(classifier) == _per_pair_fit(classifier, pairs, labels, 0.1)

    def test_no_pairs_keeps_the_prior(self):
        for classifier in default_classifiers(prior=0.3):
            classifier.fit([], [])
            assert _fitted(classifier) == _per_pair_fit(classifier, [], [], None)
            assert classifier.prior == 0.3


class TestTableEdges:
    def test_values_the_kernels_decline(self):
        """Unhashable values, NaN and years too large for float64: those
        comparisons go through the scalar callable, same answers."""
        nan = float("nan")
        people = [
            {"surname": ["Rossi"], "address": nan, "birth_date": 10**20,
             "birth_place": ("Roma",), "sex": "M", "name": "a", "father_name": "a"},
            {"surname": ["Rossi"], "address": nan, "birth_date": 10**20 + 40,
             "birth_place": ("Roma",), "sex": "F", "name": "a", "father_name": "a"},
            {"surname": "Rossi", "address": nan, "birth_date": 1990,
             "birth_place": "Roma", "sex": "F"},
        ]
        for classifier in default_classifiers():
            _assert_bit_identical(classifier, people)

    def test_paternity_ignores_case_like_the_scalar(self):
        people = [
            {"name": "MARIO", "surname": "Rossi", "birth_date": 1950},
            {"name": "Luca", "surname": "ROSSI", "father_name": "mario",
             "birth_date": 1980},
            {"name": "Anna", "surname": "Rosso", "father_name": "Mario",
             "birth_date": 1981},
        ]
        for classifier in default_classifiers():
            _assert_bit_identical(classifier, people)

    def test_unparsable_year_raises_like_the_scalar(self):
        people = [{"birth_date": "unknown"}, {"birth_date": 1990}]
        (partner, _, _) = default_classifiers()
        table = PersonTable(people)
        left, right = _all_pairs(2)
        with pytest.raises(ValueError):
            partner.probability_batch(table, left, right)

    def test_empty_input(self):
        table = PersonTable([{"surname": "Rossi"}])
        empty = np.empty(0, dtype=np.int64)
        for classifier in default_classifiers():
            assert classifier.probability_batch(table, empty, empty).shape == (0,)

    def test_distance_runs_once_per_distinct_value_pair(self):
        calls = []

        def distance(a, b):
            calls.append((a, b))
            return 0.0 if a == b else 1.0

        classifier = BayesianLinkClassifier(
            "c", (FeatureSpec("surname", distance, 0.5),)
        )
        people = [{"surname": s} for s in ("A", "B", "A", "B", "A")]
        table = PersonTable(people)
        left, right = _all_pairs(len(people))
        classifier.probability_batch(table, left, right)
        assert sorted(calls) == [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")]
        classifier.probability_batch(table, left, right)  # memoised on the table
        assert len(calls) == 4

    def test_many_features_fall_back_to_the_scalar_loop(self):
        specs = tuple(
            FeatureSpec(f"f{i}", equality_distance, 0.5) for i in range(41)
        )
        classifier = BayesianLinkClassifier("wide", specs)
        people = [{f"f{i}": i % 3 for i in range(41)}, {f"f{i}": i % 2 for i in range(41)}]
        _assert_bit_identical(classifier, people)
