"""Tests for demand-driven program slicing (``repro.datalog.slicing``)."""

from repro.core.pipeline import FAMILY_LINK_CLASSES
from repro.core.programs import (
    family_link_program,
    input_mapping,
    link_creation,
    output_mapping,
)
from repro.datalog import Database, Engine, Null, parse_program
from repro.datalog.slicing import read_predicates, slice_program


def family_program():
    """The rule sets of the pipeline's family-link run."""
    classes = ("control", "close_link") + FAMILY_LINK_CLASSES
    return parse_program(
        input_mapping(include_families=True)
        + family_link_program(FAMILY_LINK_CLASSES)
        + link_creation(classes)
        + output_mapping(classes)
    )


def rules_by_label(program):
    return {rule.label: rule for rule in program.rules}


def run(program, facts):
    engine = Engine(program, Database(facts))
    engine.run()
    return engine


class TestFamilySlice:
    def test_a_constant_mismatch_drops_the_company_node_type(self):
        rules = rules_by_label(slice_program(family_program(), FAMILY_LINK_CLASSES))
        company = rules["map_company"]
        # node_type(Z, "company") never feeds node_type(X, "person"): only
        # id_of is read (by the output mapping), features by nobody
        assert [str(atom) for atom in company.head] == ["id_of(Z, Id)"]
        assert company.origin is not None
        assert {atom.predicate for atom in rules["map_person"].head} == {
            "node_type", "id_of",
        }

    def test_an_arity_mismatch_drops_the_shareholding_mapping(self):
        sliced = slice_program(family_program(), FAMILY_LINK_CLASSES)
        labels = set(rules_by_label(sliced))
        # link/4 is not link/3, and edge_type(E, "pers_share") is no
        # family class: nothing of map_own_* is read
        assert not labels & {"map_own_person", "map_own_company"}
        assert {"fl_partner_of", "fl_sibling_of", "fl_parent_of", "mk_link"} <= labels
        assert "own" not in read_predicates(sliced)
        assert "out_control" not in labels

    def test_declared_facts_survive_only_when_read(self):
        program = parse_program('flag("a"). flag("b"). other(1). flag(X) -> seen(X).')
        assert slice_program(program, ["seen"]).facts == [("flag", ("a",)), ("flag", ("b",))]
        assert slice_program(program, ["other"]).facts == [("other", (1,))]
        assert slice_program(program, ["nothing"]).rules == []


class TestKeptProducers:
    PROGRAM = """
@mk_p mark(X) -> p(X).
@mk_q src(X), not p(X) -> q(X).
@mk_w edge(X, Y, W) -> w(X, Y, W).
@total w(X, Y, W), T = msum(W, <Y>) -> total(X, T).
@unrelated src(X) -> r(X).
@answer q(X), total(X, T) -> answer(X, T).
@answer_p p(X), total(X, T) -> answer(X, T).
"""
    FACTS = [
        ("src", ("a",)), ("src", ("b",)), ("mark", ("a",)),
        ("edge", ("a", "x", 0.25)), ("edge", ("a", "y", 0.5)), ("edge", ("b", "x", 1.0)),
    ]

    def test_negated_and_aggregated_atoms_keep_their_producers(self):
        program = parse_program(self.PROGRAM)
        sliced = slice_program(program, ["answer"])
        assert [rule.label for rule in sliced.rules] == [
            "mk_p", "mk_q", "mk_w", "total", "answer", "answer_p",
        ]
        whole = run(program, self.FACTS)
        assert set(run(sliced, self.FACTS).query("answer")) == set(whole.query("answer"))
        # b through the negation, a through p, at its final total
        answers = whole.query("answer")
        assert ("b", 1.0) in answers
        assert max(t for x, t in answers if x == "a") == 0.75

    def test_negation_alone_keeps_its_producer(self):
        sliced = slice_program(parse_program(self.PROGRAM), ["q"])
        assert [rule.label for rule in sliced.rules] == ["mk_p", "mk_q"]


class TestCutRules:
    def test_an_existential_head_keeps_its_nulls(self):
        # E is invented per (X, Y): cutting s(E, Y) must not make it per X
        program = parse_program("pair(X, Y) -> r(E, X), s(E, Y).")
        facts = [("pair", ("a", 1)), ("pair", ("a", 2)), ("pair", ("b", 1))]
        sliced = slice_program(program, ["r"])
        (rule,) = sliced.rules
        assert [atom.predicate for atom in rule.head] == ["r"]
        assert rule.origin is program.rules[0]
        got = set(run(sliced, facts).query("r"))
        assert got == set(run(program, facts).query("r"))
        assert len(got) == 3 and all(isinstance(null, Null) for null, _ in got)
        assert run(sliced, facts).query("s") == []

    def test_a_cut_rule_keeps_its_aggregate_groups(self):
        # the group of msum is every head variable bound before it: (X, Y)
        program = parse_program(
            "@sum a(X, Y, W), T = msum(W, <W>) -> total(X, T), seen(X, Y)."
        )
        facts = [("a", ("x", 1, 0.25)), ("a", ("x", 2, 0.5))]
        sliced = slice_program(program, ["total"])
        assert [atom.predicate for atom in sliced.rules[0].head] == ["total"]
        whole = run(program, facts)
        assert set(run(sliced, facts).query("total")) == set(whole.query("total"))
        assert sorted(whole.query("total")) == [("x", 0.25), ("x", 0.5)]

    def test_an_untouched_rule_is_the_same_object(self):
        program = parse_program("@a p(X) -> q(X). @b q(X) -> r(X). @c p(X) -> s(X).")
        sliced = slice_program(program, ["r"])
        assert [id(rule) for rule in sliced.rules] == [id(rule) for rule in program.rules[:2]]
