"""Tests for terms: labelled nulls and Skolem functions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datalog import Constant, Expr, Null, SkolemTerm, Variable, is_null, skolem
from repro.datalog.terms import variables_of


class TestNull:
    def test_equality_by_label(self):
        assert Null("a") == Null("a")
        assert Null("a") != Null("b")

    def test_hashable_and_usable_in_sets(self):
        assert len({Null("a"), Null("a"), Null("b")}) == 2

    def test_not_equal_to_plain_string(self):
        assert Null("a") != "a"

    def test_is_null(self):
        assert is_null(Null("x"))
        assert not is_null("x")
        assert not is_null(None)

    def test_repr_and_str(self):
        assert "a" in repr(Null("a"))
        assert "a" in str(Null("a"))


class TestSkolem:
    def test_deterministic(self):
        assert skolem("f", ("a", 1)) == skolem("f", ("a", 1))

    def test_injective_on_arguments(self):
        assert skolem("f", ("a",)) != skolem("f", ("b",))
        assert skolem("f", ("a", "b")) != skolem("f", ("ab",))

    def test_disjoint_ranges_across_functions(self):
        # a company and a person with the same name get different OIDs
        assert skolem("sk_c", ("ACME",)) != skolem("sk_p", ("ACME",))

    def test_type_sensitive(self):
        assert skolem("f", (1,)) != skolem("f", ("1",))
        assert skolem("f", (True,)) != skolem("f", (1,))

    def test_nested_tuples(self):
        assert skolem("f", (("a", "b"),)) != skolem("f", ("a", "b"))

    def test_null_arguments(self):
        assert skolem("f", (Null("x"),)) == skolem("f", (Null("x"),))
        assert skolem("f", (Null("x"),)) != skolem("f", (Null("y"),))

    @given(
        st.lists(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)), max_size=4),
        st.lists(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False)), max_size=4),
    )
    def test_property_injectivity(self, left, right):
        # Skolem arguments are typed: ``0`` and ``0.0`` (or ``0.0`` and
        # ``-0.0``) compare equal in Python yet are different arguments
        def typed(values):
            return [(type(v), repr(v)) for v in values]

        if typed(left) != typed(right):
            assert skolem("f", tuple(left)) != skolem("f", tuple(right))
        else:
            assert skolem("f", tuple(left)) == skolem("f", tuple(right))


class TestVariablesOf:
    def test_variable(self):
        assert list(variables_of(Variable("X"))) == [Variable("X")]

    def test_constant_has_none(self):
        assert list(variables_of(Constant(3))) == []

    def test_nested_expression(self):
        expr = Expr("+", (Variable("X"), Expr("*", (Variable("Y"), Constant(2)))))
        assert {v.name for v in variables_of(expr)} == {"X", "Y"}

    def test_skolem_term(self):
        term = SkolemTerm("sk", (Variable("A"), Constant("b")))
        assert [v.name for v in variables_of(term)] == ["A"]
