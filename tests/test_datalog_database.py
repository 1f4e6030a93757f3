"""Tests for the indexed fact store."""

from repro.datalog import Database


class TestAddRemove:
    def test_add_returns_true_when_new(self):
        db = Database()
        assert db.add("p", (1, 2))
        assert not db.add("p", (1, 2))

    def test_contains(self):
        db = Database([("p", (1,))])
        assert db.contains("p", (1,))
        assert not db.contains("p", (2,))
        assert not db.contains("q", (1,))
        assert ("p", (1,)) in db

    def test_add_all_counts_new(self):
        db = Database()
        added = db.add_all([("p", (1,)), ("p", (1,)), ("q", (2,))])
        assert added == 2

    def test_len_and_count(self):
        db = Database([("p", (1,)), ("p", (2,)), ("q", (3,))])
        assert len(db) == 3
        assert db.count("p") == 2
        assert db.count("missing") == 0


class TestMatch:
    def test_full_scan(self):
        db = Database([("p", (1, "a")), ("p", (2, "b"))])
        assert sorted(db.match("p", {})) == [(1, "a"), (2, "b")]

    def test_single_position(self):
        db = Database([("p", (1, "a")), ("p", (2, "b")), ("p", (1, "c"))])
        assert sorted(db.match("p", {0: 1})) == [(1, "a"), (1, "c")]

    def test_multi_position(self):
        db = Database([("p", (1, "a")), ("p", (1, "b"))])
        assert list(db.match("p", {0: 1, 1: "b"})) == [(1, "b")]

    def test_no_match(self):
        db = Database([("p", (1,))])
        assert list(db.match("p", {0: 99})) == []
        assert list(db.match("unknown", {0: 1})) == []

    def test_index_stays_fresh_after_insert(self):
        db = Database([("p", (1, "a"))])
        assert list(db.match("p", {0: 2})) == []  # builds the index
        db.add("p", (2, "b"))
        assert list(db.match("p", {0: 2})) == [(2, "b")]

    def test_mixed_arity_same_predicate(self):
        # the engine stores link/3 and link/4 under one name
        db = Database([("link", (1, 2, 3)), ("link", (1, 2, 3, 0.5))])
        assert db.count("link") == 2


class TestBulk:
    def test_all_facts(self):
        facts = [("p", (1,)), ("q", (2, 3))]
        db = Database(facts)
        assert sorted(db.all_facts()) == sorted(facts)

    def test_copy_is_independent(self):
        db = Database([("p", (1,))])
        clone = db.copy()
        clone.add("p", (2,))
        assert db.count("p") == 1
        assert clone.count("p") == 2

    def test_predicates_skips_empty(self):
        db = Database([("p", (1,))])
        db.live_rows("q")  # leaves an empty predicate entry behind
        assert db.predicates() == ["p"]

    def test_repr(self):
        db = Database([("p", (1,))])
        assert "p" in repr(db)


class TestIndexStability:
    """Compiled evaluators capture index dicts once and probe them across
    semi-naive rounds: add must extend those dicts in place."""

    def test_add_updates_captured_index(self):
        db = Database([("p", (1, "a"))])
        index = db.index_for("p", (1,))
        db.add("p", (2, "a"))
        assert sorted(index[("a",)]) == [(1, "a"), (2, "a")]

    def test_distinct_count_reports_only_built_indexes(self):
        db = Database([("p", (1, "a")), ("p", (2, "a"))])
        assert db.distinct_count("p", (0,)) is None
        db.index_for("p", (0,))
        assert db.distinct_count("p", (0,)) == 2
        assert db.distinct_count("p", (1,)) is None


class TestIterFacts:
    def test_iter_facts_is_a_live_view(self):
        db = Database([("p", (1,))])
        iterator = db.iter_facts("p")
        db.add("p", (2,))
        assert list(iterator) == [(1,), (2,)]

    def test_iter_facts_missing_predicate(self):
        db = Database()
        assert list(db.iter_facts("absent")) == []
        # must not create an empty entry as a side effect
        assert db.predicates() == []

    def test_iter_facts_matches_facts_copy(self):
        db = Database([("p", (1,)), ("p", (2,))])
        assert list(db.iter_facts("p")) == db.facts("p")


class TestFactsIsolation:
    """``facts()`` hands out a copy: callers cannot corrupt the store."""

    def test_mutating_returned_list_does_not_corrupt_contains(self):
        db = Database([("p", (1,)), ("p", (2,))])
        rows = db.facts("p")
        rows.append((3,))
        rows.remove((1,))
        assert db.contains("p", (1,))
        assert not db.contains("p", (3,))
        assert db.count("p") == 2

    def test_mutating_returned_list_does_not_corrupt_match(self):
        db = Database([("p", (1, "a")), ("p", (2, "b"))])
        assert list(db.match("p", {0: 1})) == [(1, "a")]  # builds the index
        db.facts("p").clear()
        assert list(db.match("p", {0: 1})) == [(1, "a")]
        assert sorted(db.match("p", {})) == [(1, "a"), (2, "b")]

    def test_missing_predicate_returns_fresh_list(self):
        db = Database()
        rows = db.facts("absent")
        rows.append((1,))
        assert db.count("absent") == 0
        assert db.facts("absent") == []

    def test_copy_rebuilds_sets_from_rows(self):
        db = Database([("p", (1,))])
        db.live_rows("q")  # leaves an empty predicate entry behind
        clone = db.copy()
        assert clone.count() == 1
        assert clone.contains("p", (1,))
        assert "q" not in clone._facts
        # clone indexes are built independently of the original's
        assert list(clone.match("p", {0: 1})) == [(1,)]
        clone.add("p", (5,))
        assert not db.contains("p", (5,))
