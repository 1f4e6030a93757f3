"""Tests for the columnar relation cache (interner, blocks, column store)
and the index-backed planner statistics it leans on."""

import math
import random
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Database, Engine, parse_program
from repro.datalog.columns import MAX_CODES, ValueInterner, probe_keys
from repro.datalog.planner import plan_rule
from tests.test_memory_lifetime import collector_off


class TestValueInterner:
    def test_python_equality_semantics(self):
        interner = ValueInterner()
        codes = np.array([interner.intern(v) for v in (1, 1.0, True, 0.0, -0.0)])
        # every value keeps a code of its own, so it decodes to itself ...
        assert len(set(codes.tolist())) == 5
        decoded = interner.decode(codes)
        assert [(type(v), repr(v)) for v in decoded] == [
            (int, "1"), (float, "1.0"), (bool, "True"), (float, "0.0"), (float, "-0.0")
        ]
        # ... and ``==`` is the class: the first code of the values equal to it
        classes = interner.classes(codes).tolist()
        assert classes == [codes[0]] * 3 + [codes[3]] * 2
        assert interner.lookup(1.0) == interner.lookup(True) == codes[0]
        assert interner.intern(1.0) == codes[1]
        assert interner.intern("a") != interner.intern("b")
        assert interner.intern("a") == interner.intern("a")

    def test_each_nan_object_gets_its_own_code(self):
        interner = ValueInterner()
        first, second = float("nan"), float("nan")
        assert interner.intern(first) != interner.intern(second)
        assert interner.intern(first) == interner.intern(first)

    def test_lookup_of_unseen_value_is_minus_one(self):
        interner = ValueInterner()
        interner.intern("seen")
        assert interner.lookup("seen") == 0
        assert interner.lookup("never") == -1

    def test_tables_mark_safety_and_nan(self):
        interner = ValueInterner()
        codes = [
            interner.intern(2),            # safe int
            interner.intern(2**53 + 1),    # unsafe int
            interner.intern(0.5),          # float
            interner.intern(float("nan")),  # nan float
            interner.intern("text"),       # non-numeric
        ]
        floats, is_float, is_safe, is_nan = interner.tables()
        assert floats[codes[0]] == 2.0
        assert list(is_safe[codes]) == [True, False, True, True, False]
        assert list(is_float[codes]) == [False, False, True, True, False]
        assert list(is_nan[codes]) == [False, False, False, True, False]
        assert math.isnan(floats[codes[4]])

    def test_tables_cached_until_growth(self):
        interner = ValueInterner()
        interner.intern("a")
        first = interner.tables()
        again = interner.tables()
        assert first[0] is again[0]  # same numpy object, no rebuild
        interner.intern("b")
        grown = interner.tables()
        assert len(grown[0]) == 2

    def test_code_space_fits_pair_packing(self):
        # the executor packs (a << 32) | b; codes must stay below 2**31
        assert MAX_CODES == 2**31


_KNOWN = st.sampled_from([0, 1, 2, True, False, 1.0, 2.0, -0.0, "a", "b", None])


class TestInternColumn:
    """A column interned in one pass gets the codes of interning its
    values one by one, whatever ``==`` values of other types came first
    (a str or int column takes its new values' codes in bulk)."""

    @given(
        st.lists(_KNOWN, max_size=8),
        st.one_of(
            st.lists(st.integers(-3, 3), min_size=1, max_size=10),
            st.lists(st.sampled_from(["a", "b", "c", ""]), min_size=1, max_size=10),
            st.lists(_KNOWN, min_size=1, max_size=10),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_value_by_value(self, before, column):
        bulk, single = ValueInterner(), ValueInterner()
        for value in before:
            bulk.intern(value)
            single.intern(value)
        codes = bulk.intern_column(column).tolist()
        assert codes == [single.intern(value) for value in column]
        assert repr(bulk.decode(np.asarray(codes))) == repr(column)
        assert len(bulk) == len(single)
        assert bulk.intern_column(column).tolist() == codes  # a second pass adds nothing
        assert len(bulk) == len(single)


class TestColumnStore:
    def _store(self, facts):
        database = Database(list(facts))
        return database, database.column_store()

    def test_block_contents_match_rows(self):
        database, store = self._store(
            [("edge", (1, 2)), ("edge", (2, 3)), ("edge", (1, 2))]
        )
        block = store.block("edge", 2)
        assert block.size == 2  # set semantics upstream: duplicate dropped
        values = [store.interner.values[c] for c in block.column(0).tolist()]
        assert values == [1, 2]

    def test_sync_appends_without_rebuilding(self):
        database, store = self._store([("edge", (1, 2))])
        block = store.block("edge", 2)
        database.add("edge", (3, 4))
        grown = store.block("edge", 2)
        assert grown is block  # the same block object grew in place
        assert grown.size == 2

    def test_block_growth_beyond_initial_capacity(self):
        database = Database()
        store = database.column_store()
        for n in range(100):
            database.add("num", (n,))
        block = store.block("num", 1)
        assert block.size == 100
        decoded = [store.interner.values[c] for c in block.column(0).tolist()]
        assert decoded == list(range(100))

    def test_mixed_arities_get_separate_blocks(self):
        database, store = self._store([("p", (1,)), ("p", (1, 2))])
        assert store.block("p", 1).size == 1
        assert store.block("p", 2).size == 1
        assert store.block("p", 3) is None

    def test_empty_relation_has_no_block(self):
        database, store = self._store([])
        assert store.block("missing", 2) is None

    def test_sorted_keys_cached_per_version(self):
        database, store = self._store([("edge", (2, 9)), ("edge", (1, 8))])
        first = store.sorted_keys("edge", 2, (0,))
        again = store.sorted_keys("edge", 2, (0,))
        assert first is again
        assert first[1].tolist() == sorted(first[1].tolist())
        database.add("edge", (0, 7))
        rebuilt = store.sorted_keys("edge", 2, (0,))
        assert rebuilt is not first
        assert len(rebuilt[1]) == 3

    def test_sorted_keys_stable_within_equal_keys(self):
        database, store = self._store(
            [("own", ("a", n)) for n in range(5)] + [("own", ("b", 9))]
        )
        order = store.sorted_keys("own", 2, (0,))[0]
        # all five "a" rows share the key; stable sort keeps insertion order
        assert order.tolist()[:5] == [0, 1, 2, 3, 4]

    def test_wide_keys_find_the_rows_tuple_equality_finds(self):
        rng = random.Random(3)
        # distinct rows: the database keeps one copy of each fact
        rows = list(dict.fromkeys(
            tuple(rng.randrange(4) for _ in range(4)) for _ in range(60)
        ))
        database, store = self._store([("q", row) for row in rows])
        codes = store.interner.lookup
        for positions in ((0, 1), (0, 1, 2), (3, 1, 0, 2), (2, 0, 1)):
            order, keys, levels = store.sorted_keys("q", 4, positions)
            assert len(levels) == max(len(positions) - 2, 0)
            probes = [tuple(rng.randrange(4) for _ in positions) for _ in range(80)]
            columns = [
                np.array([codes(probe[i]) for probe in probes], dtype=np.int64)
                for i in range(len(positions))
            ]
            packed, known = probe_keys(levels, columns)
            left = np.searchsorted(keys, packed, side="left")
            right = np.searchsorted(keys, packed, side="right")
            for number, probe in enumerate(probes):
                expected = [
                    index for index, row in enumerate(rows)
                    if tuple(row[p] for p in positions) == probe
                ]
                found = order[left[number] : right[number]].tolist()
                if known is not None and not known[number]:
                    found = []
                # matches come out in insertion order, as the nested loop has them
                assert found == expected, (positions, probe)


class TestSnapshotSharing:
    def test_database_copy_carries_blocks(self):
        database = Database([("edge", (1, 2))])
        store = database.column_store()
        clone = database.copy()
        clone_store = clone.column_store()
        # the clone's interner extends ours: same codes, its own additions
        assert clone_store.interner is not store.interner
        assert clone_store.interner.lookup(2) == store.interner.lookup(2)
        assert clone_store.block("edge", 2).size == 1
        clone.add("edge", (2, "new"))
        assert clone_store.block("edge", 2).size == 2
        assert store.interner.lookup("new") == -1
        assert clone_store.interner.values[clone_store.interner.lookup("new")] == "new"

    def test_a_copy_of_a_copy_decodes_what_the_first_copy_minted(self):
        database = Database([("edge", (1, 2))])
        clone = database.copy()
        clone.add("edge", ("minted", 1.0))
        grandchild = clone.copy()
        interner = grandchild.column_store().interner
        block = grandchild.column_store().block("edge", 2)
        assert interner.decode(block.column(0)) == [1, "minted"]
        # 1.0 got a code of its own in the first copy, in the class of 1;
        # the second copy inherited both
        decoded = interner.decode(block.column(1))
        assert decoded == [2, 1.0] and type(decoded[1]) is float
        one = interner.intern(1.0)
        assert one != interner.lookup(1) == interner.classes(np.array([one]))[0]
        grandchild.add("edge", ("again", 3))
        assert interner.lookup("again") >= 0
        assert clone.column_store().interner.lookup("again") == -1
        assert database.column_store().interner.lookup("minted") == -1

    def test_a_partial_copy_carries_only_the_blocks_it_holds(self):
        database = Database([("edge", (1, 2)), ("node", (1,))])
        clone_store = database.copy(["node"]).column_store()
        assert clone_store.block("node", 1).size == 1
        assert clone_store.block("edge", 2) is None
        assert clone_store.predicates() == ["node"]

    def test_clone_blocks_are_isolated_from_the_original(self):
        database = Database([("edge", (1, 2))])
        clone = database.copy()
        database.add("edge", (3, 4))
        assert clone.column_store().block("edge", 2).size == 1
        assert database.column_store().block("edge", 2).size == 2


class TestLifetime:
    """A store holds its database's row lists, not the database: with the
    cycle collector off, a database still dies on its last reference."""

    def test_a_database_dies_after_a_vectorized_run(self):
        program = parse_program(
            "edge(X, Y) -> path(X, Y).\npath(X, Z), edge(Z, Y) -> path(X, Y)."
        )
        with collector_off():
            database = Engine(program, Database([("edge", (1, 2)), ("edge", (2, 3))])).run()
            assert database._columns is not None  # the vectorized run attached it
            assert database.count("path") == 3
            dead = weakref.ref(database)
            del database
            assert dead() is None

    def test_a_clone_that_inherited_blocks_dies(self):
        database = Database([("edge", (1, 2))])
        with collector_off():
            clone = database.copy()
            assert clone.column_store().block("edge", 2).size == 1
            dead = weakref.ref(clone)
            del clone
            assert dead() is None


class TestPlannerStatistics:
    """``cardinality``/``distinct_count`` serve the planner from maintained
    indexes only — asking must never build or mutate one (the replanning
    path runs while the interpreter's probes hold index buckets)."""

    def _database(self):
        return Database(
            [("own", ("a", "b", 0.5)), ("own", ("a", "c", 0.5)),
             ("own", ("b", "c", 1.0))]
        )

    def test_cardinality(self):
        database = self._database()
        assert database.cardinality("own") == 3
        assert database.cardinality("missing") == 0

    def test_distinct_count_exact_from_matching_index(self):
        database = self._database()
        database.index_for("own", (0,))
        assert database.distinct_count("own", (0,)) == 2

    def test_distinct_count_exact_without_a_matching_index(self):
        database = self._database()
        database.index_for("own", (0,))
        # (0, 1) has no index; the blocks count it exactly
        assert database.distinct_count("own", (0, 1)) == 3

    def test_distinct_count_exact_without_any_index(self):
        database = self._database()
        assert database.distinct_count("own", (0,)) == 2
        assert database.distinct_count("own", (1,)) == 2
        assert database._indexes == {}

    def test_stats_queries_never_create_indexes(self):
        database = self._database()
        database.index_for("own", (0,))
        before = {
            predicate: set(indexes)
            for predicate, indexes in database._indexes.items()
        }
        database.distinct_count("own", (0, 1))
        database.distinct_count("own", (2,))
        database.cardinality("own")
        after = {
            predicate: set(indexes)
            for predicate, indexes in database._indexes.items()
        }
        assert after == before

    def test_replanning_does_not_mutate_live_indexes(self):
        # plan the same rule twice over a grown database: the second
        # (re)planning round may consult statistics at will but must not
        # touch the index structures the interpreter probes
        program = parse_program("own(X, Z, W), own(Z, Y, V) -> hop(X, Y).")
        database = self._database()
        engine = Engine(program, database)
        engine.run()
        indexes_before = {
            predicate: {key: id(index) for key, index in indexes.items()}
            for predicate, indexes in database._indexes.items()
        }
        rule = program.rules[0]
        plan_rule(rule, None, database)
        plan_rule(rule, rule.positive_positions()[0], database)
        indexes_after = {
            predicate: {key: id(index) for key, index in indexes.items()}
            for predicate, indexes in database._indexes.items()
        }
        assert indexes_after == indexes_before
