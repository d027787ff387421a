"""Exponent expression parsing, measures, and the knapsack reduction."""

import itertools

import pytest

from knapsolve.errors import InputError
from knapsolve.expr import (
    ExponentExpression,
    knapsackify,
    parse_expr,
)
from knapsolve.groups import IntegerGroup, solve_exponent


def test_parse_simple():
    e = parse_expr("(a b)^x c (a)^y")
    assert e.factors == ((("a", "b"), "x", ("c",)), (("a",), "y", ()))


def test_parse_bare_letter_power():
    e = parse_expr("t^x t'^4")
    assert e.factors == ((("t",), "x", ("t'",) * 4),)


def test_parse_leading_constant_is_folded():
    # c u^x has the same solutions as u^x c (conjugation by c)
    e = parse_expr("c (a)^x b")
    assert e.factors == ((("a",), "x", ("b", "c")),)


def test_parse_errors():
    with pytest.raises(InputError):
        parse_expr("(a b")
    with pytest.raises(InputError):
        parse_expr("^x")
    with pytest.raises(InputError):
        parse_expr("(a))^x")
    with pytest.raises(InputError):
        parse_expr("a b c")  # no power at all
    with pytest.raises(InputError):
        parse_expr("(a)^x $")


@pytest.mark.parametrize("text", ["(a)^x ", "(a)^x\n", " \t(a)^x \n "])
def test_parse_ignores_surrounding_whitespace(text):
    assert parse_expr(text) == parse_expr("(a)^x")


def test_parse_error_position_counts_from_the_left():
    with pytest.raises(InputError, match="position 6"):
        parse_expr("(a)^x $ \n")


def test_length_degree():
    assert parse_expr("t^x").length() == 1
    assert parse_expr("t^x").degree() == 1
    e = parse_expr("(a b)^x c (a b)^y")
    assert e.length() == 5
    assert e.degree() == 2
    rep = parse_expr("(a)^x b (a)^x")
    assert rep.degree() == 2
    assert rep.variables == ("x",)


def test_evaluate():
    assert parse_expr("t^x").evaluate({"x": 3}) == ("t",) * 3
    assert parse_expr("(a b)^x c").evaluate({"x": 0}) == ("c",)
    assert parse_expr("(a)^x b (a)^x").evaluate({"x": 2}) == tuple("aabaa")


def test_normalize_preserves_solutions_over_Z():
    Z = IntegerGroup()
    e = parse_expr("t (t)^x t' t' t'")
    sols = solve_exponent(Z, e)
    assert sols.points_in_box(10) == {(2,)}


def test_knapsackify_diagonal():
    e = parse_expr("(a)^x b (a)^x")
    e2, K = knapsackify(e)
    assert e2.variables == ("x", "x_2")
    assert K.magnitude() == 1
    for vx, v2 in itertools.product(range(6), repeat=2):
        assert K.membership((vx, v2)) == (vx == v2)


def test_knapsackify_noop_on_knapsack_expression():
    e = parse_expr("(a)^x (b)^y")
    e2, K = knapsackify(e)
    assert e2 == e
    for v in itertools.product(range(4), repeat=2):
        assert K.membership(v)


def test_knapsackify_three_occurrences():
    e = parse_expr("(a)^x (a)^x (a)^x")
    e2, K = knapsackify(e)
    assert len(e2.variables) == 3
    assert e2.length() == e.length()
    assert e2.degree() == e.degree()
    for v in itertools.product(range(4), repeat=3):
        assert K.membership(v) == (v[0] == v[1] == v[2])
