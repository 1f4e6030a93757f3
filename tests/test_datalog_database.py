"""Tests for the indexed fact store."""

from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_distinct_count_is_exact_without_an_index(self):
        db = Database([("p", (1, "a")), ("p", (2, "a"))])
        assert db.distinct_count("p", (0,)) == 2
        assert db.distinct_count("p", (1,)) == 1
        db.index_for("p", (0,))
        assert db.distinct_count("p", (0,)) == 2


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
        assert clone.predicates() == ["p"]
        # clone indexes are built independently of the original's
        assert list(clone.match("p", {0: 1})) == [(1,)]
        clone.add("p", (5,))
        assert not db.contains("p", (5,))


#: one NaN object: a container finds it by identity, as the oracle's set does
_NAN = float("nan")
_VALUES = st.sampled_from(
    [0, 1, 2, True, False, 0.0, -0.0, 1.0, 2.5, "a", "b", None, (1, 2), (1.0, 2), _NAN]
)


@st.composite
def _operations(draw):
    """Random add / load / copy / check steps over two predicates whose
    facts mix arities and ``==``-equal values of different types (a
    check builds the decoded view that later steps must extend)."""
    rows = st.integers(min_value=0, max_value=3).flatmap(
        lambda arity: st.lists(st.tuples(*[_VALUES] * arity), min_size=1, max_size=6)
    )
    step = st.one_of(
        st.tuples(st.just("add"), st.sampled_from("pq"), st.lists(_VALUES, max_size=3)
                  .map(tuple)),
        st.tuples(st.just("load"), st.sampled_from("pq"), rows),
        st.tuples(st.just("copy"), st.sampled_from([None, ("p",), ("q",)]), st.just(None)),
        st.tuples(st.just("check"), st.just(None), st.just(None)),
    )
    return draw(st.lists(st.tuples(st.integers(min_value=0, max_value=3), step),
                         max_size=25))


class TestBlockBackedOracle:
    """The code-block store against a tuple-list oracle: the same facts,
    of the same types, in the same order, whatever mix of adds, column
    loads and copies produced them."""

    @given(_operations())
    @settings(max_examples=150, deadline=None)
    def test_facts_match_a_tuple_list_oracle(self, operations):
        stores = [(Database(), {})]  # (database, predicate -> (rows, set))
        for which, (kind, predicate, payload) in operations:
            database, oracle = stores[which % len(stores)]
            if kind == "check":
                _check_against(database, oracle)
                continue
            if kind == "copy":
                wanted = predicate
                clone = {
                    name: (list(rows), set(seen)) for name, (rows, seen) in oracle.items()
                    if wanted is None or name in wanted
                }
                stores.append((database.copy(wanted), clone))
                continue
            batch = [payload] if kind == "add" else payload
            expected = 0
            for values in batch:
                rows, seen = oracle.setdefault(predicate, ([], set()))
                if values not in seen:
                    seen.add(values)
                    rows.append(values)
                    expected += 1
            if kind == "add":
                assert database.add(predicate, payload) == bool(expected)
            else:
                columns = [list(column) for column in zip(*payload)]
                if columns:
                    assert database.load(predicate, columns) == expected
                else:
                    assert database.add_all([(predicate, ())] * len(payload)) == expected
        for database, oracle in stores:
            _check_against(database, oracle)


def _check_against(database, oracle) -> None:
    for predicate in "pq":
        rows = oracle.get(predicate, ([], set()))[0]
        assert database.facts(predicate) == rows
        assert repr(database.facts(predicate)) == repr(rows)
        assert repr(list(database.iter_facts(predicate))) == repr(rows)
        assert database.count(predicate) == len(rows)
        for values in rows:
            assert database.contains(predicate, values)
            if values:  # an index probe: a dict lookup, identity first
                first = values[0]
                assert list(database.match(predicate, {0: first})) == [
                    row for row in rows if row and (row[0] is first or row[0] == first)
                ]
        if rows:
            assert repr(database.live_rows(predicate)) == repr(rows)
            assert database.live_set(predicate) == set(rows)
    assert database.predicates() == [p for p, (rows, _) in oracle.items() if rows]
