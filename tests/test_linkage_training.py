"""Tests for classifier training on planted ground truth."""

from repro.datagen import CompanySpec, generate_company_graph
from repro.linkage import (
    PARENT_OF,
    PARTNER_OF,
    SIBLING_OF,
    default_classifiers,
    persons_of,
    train_classifiers,
    training_pairs,
)


def small_world():
    return generate_company_graph(
        CompanySpec(persons=200, companies=50, seed=11, feature_noise=0.0)
    )


class TestTrainingPairs:
    def test_positive_pairs_labelled_true(self):
        graph, truth = small_world()
        examples = training_pairs(persons_of(graph), truth.links, PARTNER_OF, seed=1)
        positives = [pair for pair, label in examples if label]
        assert len(positives) == len(truth.pairs(PARTNER_OF))

    def test_negatives_generated(self):
        graph, truth = small_world()
        examples = training_pairs(
            persons_of(graph), truth.links, PARTNER_OF, negatives_per_positive=2, seed=1
        )
        negatives = sum(1 for _, label in examples if not label)
        positives = sum(1 for _, label in examples if label)
        assert negatives >= positives  # roughly 2x, budget-limited

    def test_negatives_are_not_true_links(self):
        graph, truth = small_world()
        examples = training_pairs(persons_of(graph), truth.links, SIBLING_OF, seed=2)
        linked_feature_pairs = {
            (id(l), id(r)) for (l, r), label in examples if label
        }
        assert linked_feature_pairs  # sanity: structure built

    def test_deterministic(self):
        graph, truth = small_world()
        a = training_pairs(persons_of(graph), truth.links, PARTNER_OF, seed=5)
        b = training_pairs(persons_of(graph), truth.links, PARTNER_OF, seed=5)
        assert len(a) == len(b)
        assert [label for _, label in a] == [label for _, label in b]


class TestTrainedClassifiers:
    def test_training_beats_or_matches_defaults_on_accuracy(self):
        """Accuracy over a balanced set of true links and random non-links:
        training learns honest u-probabilities, so it may trade a little
        recall for precision but must not lose overall accuracy."""
        import random

        graph, truth = small_world()
        persons = persons_of(graph)
        trained = {c.link_class: c for c in train_classifiers(persons, truth.links, seed=3)}
        untrained = {c.link_class: c for c in default_classifiers()}

        rng = random.Random(99)
        person_ids = sorted(persons)
        linked = {(x, y) for x, y, _ in truth.links}
        negatives = []
        while len(negatives) < len(truth.links):
            x, y = rng.sample(person_ids, 2)
            if (x, y) not in linked:
                negatives.append((x, y))

        def accuracy(classifiers):
            correct = total = 0
            for x, y, link_class in truth.links:
                total += 1
                if classifiers[link_class].probability(persons[x], persons[y]) > 0.5:
                    correct += 1
            for x, y in negatives:
                for classifier in classifiers.values():
                    total += 1
                    if classifier.probability(persons[x], persons[y]) <= 0.5:
                        correct += 1
            return correct / total

        assert accuracy(trained) >= accuracy(untrained) - 0.02

    def test_trained_recall_reasonable_without_noise(self):
        graph, truth = small_world()
        persons = persons_of(graph)
        trained = {c.link_class: c for c in train_classifiers(persons, truth.links, seed=3)}
        hits = total = 0
        for x, y, link_class in truth.links:
            total += 1
            if trained[link_class].probability(persons[x], persons[y]) > 0.5:
                hits += 1
        assert hits / total > 0.6

    def test_default_classifiers_cover_all_classes(self):
        classes = {c.link_class for c in default_classifiers()}
        assert classes == {PARTNER_OF, SIBLING_OF, PARENT_OF}

    def test_parent_classifier_is_directional(self):
        classifiers = {c.link_class: c for c in default_classifiers()}
        assert classifiers[PARENT_OF].direction is not None
        assert classifiers[PARTNER_OF].direction is None


class TestPinnedEstimates:
    """``train_classifiers`` on the extract CI checks the vectorized
    backend on (``repro generate --persons 40 --companies 30 --seed 5``,
    read back from its CSV files) gives the prior, m and u the per-pair
    count gave before the fit read evidence columns, float for float."""

    PINNED = {
        PARTNER_OF: (0.1, {
            "address": (0.9705882352941176, 0.01020408163265306),
            "birth_date": (0.9705882352941176, 0.23469387755102042),
            "sex": (0.029411764705882353, 0.5204081632653061),
        }),
        SIBLING_OF: (0.1, {
            "surname": (0.9444444444444444, 0.18),
            "birth_place": (0.5, 0.07894736842105263),
            "address": (0.2777777777777778, 0.02),
            "birth_date": (0.9444444444444444, 0.34),
            "father_name": (0.9444444444444444, 0.1),
        }),
        PARENT_OF: (0.1, {
            "surname": (0.5, 0.15306122448979592),
            "address": (0.38235294117647056, 0.01020408163265306),
            "birth_place": (0.23333333333333334, 0.13414634146341464),
            "birth_date": (0.9705882352941176, 0.3979591836734694),
            "paternity": (0.4411764705882353, 0.01020408163265306),
        }),
    }

    def test_ci_extract(self, tmp_path):
        import json

        from repro.cli import main
        from repro.graph.io import read_company_csv

        main(["generate", str(tmp_path), "--persons", "40", "--companies", "30",
              "--seed", "5"])
        graph = read_company_csv(tmp_path)
        with open(tmp_path / "ground_truth.json") as handle:
            links = {tuple(link) for link in json.load(handle)["links"]}
        fitted = {
            classifier.link_class: (classifier.prior, {
                name: (estimate.m, estimate.u)
                for name, estimate in classifier.estimates.items()
            })
            for classifier in train_classifiers(persons_of(graph), links)
        }
        assert fitted == self.PINNED
