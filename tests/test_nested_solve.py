"""Nested solves run under the caller's limits and report into its diagnostics.

(Z2*Z3)*Z5, with Z2*Z3 as a vertex, answers an equation over the letters
of Z2*Z3 by handing it to that vertex's own solver.  That nested solve
takes the same splits budget as the flat group's, draws on the same
states budget, which caps the states of the whole solve, adds its
counters to the caller's diagnostics and clears complete when its search
leaves the completeness bounds, so both groups give the same answer and
the same flag.  Every Diophantine solve of a solve adds its nodes to the
same diagnostics.
"""

import pytest

import knapsolve as ks
from knapsolve.errors import BudgetExceededError
from knapsolve.oracle import compare


def cyclic(order, generator):
    return {"type": "CyclicGroup", "order": order, "generator": generator}


FLAT = {"type": "FreeProduct", "children": [cyclic(2, "a"), cyclic(3, "b")]}
NESTED = {"type": "FreeProduct", "children": [FLAT, cyclic(5, "c")]}
EXPR = "(a b')^x (b')^y (b a)^z a"


def solve(desc, **limits):
    diagnostics = {}
    sols = ks.solve_exponent_graph_product(
        ks.build_backend(desc), ks.parse_expr(EXPR),
        diagnostics=diagnostics, **limits,
    )
    return sols, diagnostics


def test_nested_solve_is_flagged_as_the_flat_one():
    flat, flat_diag = solve(FLAT)
    nested, nested_diag = solve(NESTED)
    assert nested == flat
    assert flat_diag["complete"] is False
    assert nested_diag["complete"] is False
    # the nested search's counters add to the outer ones
    assert nested_diag["states"] > flat_diag["states"]


def test_nested_search_takes_the_states_budget():
    for desc in (FLAT, NESTED):
        diagnostics = {}
        with pytest.raises(BudgetExceededError):
            ks.solve_exponent(ks.build_backend(desc), ks.parse_expr(EXPR),
                              states_budget=100, diagnostics=diagnostics)
        assert diagnostics["states"] > 100


def test_nested_search_takes_the_splits_budget():
    flat, flat_diag = solve(FLAT, splits_budget=0)
    nested, nested_diag = solve(NESTED, splits_budget=0)
    assert nested == flat
    assert flat_diag["complete"] is False
    assert nested_diag["complete"] is False


@pytest.mark.parametrize("desc", [FLAT, NESTED])
def test_solve_entry_and_graph_product_solver_agree(desc):
    backend = ks.build_backend(desc)
    e = ks.parse_expr(EXPR)
    entry_diag, gp_diag = {}, {}
    entry = ks.solve_exponent(backend, e, diagnostics=entry_diag)
    gp = ks.solve_exponent_graph_product(backend, e, diagnostics=gp_diag)
    assert entry == gp
    assert entry_diag == gp_diag


def test_states_budget_caps_the_whole_solve():
    # unbounded, the flat solve counts 354 states in one search and the
    # nested one about 920 in many; each search gets what is left
    unbounded, _ = solve(FLAT)
    for desc in (FLAT, NESTED):
        diagnostics = {}
        with pytest.raises(BudgetExceededError, match=r"\(limit 200\)"):
            ks.solve_exponent(ks.build_backend(desc), ks.parse_expr(EXPR),
                              states_budget=200, diagnostics=diagnostics)
        assert diagnostics["states"] <= 201
        sols, diagnostics = solve(desc, states_budget=2_000)
        assert sols == unbounded
        assert diagnostics["states"] <= 2_000


def test_join_split_reports_its_diophantine_nodes():
    z7_x_z5 = {"type": "GraphProduct",
               "vertices": [cyclic(7, "a"), cyclic(5, "b")], "edges": [[0, 1]]}
    diagnostics = {}
    ks.solve_exponent(ks.build_backend(z7_x_z5),
                      ks.parse_expr("(a b)^x (a a b)^y (b a)^z a"),
                      diagnostics=diagnostics)
    assert diagnostics["states"] == 0
    assert diagnostics["dioph_nodes"] > 0


@pytest.mark.parametrize("desc, text", [
    (FLAT, "a^x b^y a^x b^y"),
    ({"type": "Hnn", "base": cyclic(2, "a"), "stable_letter": "t",
      "A": [[], ["a"]], "B": [[], ["a"]]}, "(t t)^x t'^y t'^x"),
])
def test_reduction_diagonal_reports_its_diophantine_nodes(desc, text):
    backend = ks.build_backend(desc)
    e = ks.parse_expr(text)
    diagnostics = {}
    sols = ks.solve_exponent(backend, e, diagnostics=diagnostics)
    assert diagnostics["dioph_nodes"] > 0
    assert compare(backend, e, sols, 4)["ok"]
