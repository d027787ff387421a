"""Search work pinned on fast corpus instances.

Each case solves one expression of the benchmark's solve corpus and
compares the whole diagnostics dict and the sorted answer with values
recorded before the shared search rules were each written once (one
lockstep automaton product, the splits cap applied by the search, one
components helper); path-p3/d3/3 was recorded before matched factor
pairs were joined power by power, and its answer is also checked by the
oracle.  A change to the search's work then shows up here
as a counter change, before it moves an instance that sits near its
time limit in the benchmark.  The cases cover the nine corpus groups at
degrees 1-3 and give the same record under every hash seed (CI reruns
the file under eight).
"""

import pytest

from knapsolve.errors import BudgetExceededError
from knapsolve.expr import parse_expr
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.oracle import compare
from knapsolve.reduction import REPORT_KEYS


def _z(order, gen):
    return {"type": "CyclicGroup", "order": order, "generator": gen}


GROUPS = {
    "integers": {"type": "IntegerGroup", "generator": "t"},
    "cyclic-2": _z(2, "a"),
    "cyclic-3": _z(3, "b"),
    "direct-z2-z2": {
        "type": "GraphProduct",
        "vertices": [_z(2, "a"), _z(2, "b")],
        "edges": [[0, 1]],
    },
    "free-z2-z3": {
        "type": "FreeProduct",
        "children": [_z(2, "a"), _z(3, "b")],
    },
    "path-p3": {
        "type": "GraphProduct",
        "vertices": [_z(2, "a"), _z(2, "b"), _z(2, "c")],
        "edges": [[0, 1], [1, 2]],
    },
    "hnn-z2": {
        "type": "Hnn",
        "base": _z(2, "a"),
        "stable_letter": "t",
        "A": [[], ["a"]],
        "B": [[], ["a"]],
    },
    "amalgam-z4-z2-z4": {
        "type": "Amalgam",
        "left": _z(4, "a"),
        "right": _z(4, "b"),
        "phi1": [["a", "a"]],
        "phi2": [["b", "b"]],
        "stable_letter": "t",
    },
    # Z with its index-2 subgroup <s>, s = t^2
    "z-in-z-index-2": {
        "type": "FiniteExt",
        "subgroup": {"type": "IntegerGroup", "generator": "s"},
        "cosets": ["1", "t"],
        "rules": [
            {"c": "1", "a": "s", "w": ["s"], "d": "1"},
            {"c": "1", "a": "s'", "w": ["s'"], "d": "1"},
            {"c": "1", "a": "t", "w": [], "d": "t"},
            {"c": "1", "a": "t'", "w": ["s'"], "d": "t"},
            {"c": "t", "a": "s", "w": ["s"], "d": "t"},
            {"c": "t", "a": "s'", "w": ["s'"], "d": "t"},
            {"c": "t", "a": "t", "w": ["s"], "d": "1"},
            {"c": "t", "a": "t'", "w": [], "d": "1"},
        ],
    },
}

#: (corpus key "group/degree/index", expression, diagnostics, sorted
#: components (base, periods))
CASES = [
    ("integers/d3/1", "(t')^x t (t' t t)^y (t' t' t)^z",
     {"dioph_nodes": 8, "branches": 0, "complete": True, "grids": 0,
      "pruned": 0, "reductions": 0, "states": 0},
     [
         ((0, 0, 1), [(0, 1, 1), (1, 1, 0)]),
         ((1, 0, 0), [(0, 1, 1), (1, 1, 0)]),
     ]),
    ("cyclic-2/d3/0", "(a' a' a')^x a (a')^y (a')^z a'",
     {"branches": 0, "complete": True, "dioph_nodes": 0, "grids": 0,
      "pruned": 0, "reductions": 0, "states": 0},
     [
         ((0, 0, 0), [(0, 0, 2), (0, 2, 0), (2, 0, 0)]),
         ((0, 1, 1), [(0, 0, 2), (0, 2, 0), (2, 0, 0)]),
         ((1, 0, 1), [(0, 0, 2), (0, 2, 0), (2, 0, 0)]),
         ((1, 1, 0), [(0, 0, 2), (0, 2, 0), (2, 0, 0)]),
     ]),
    ("cyclic-3/d3/3", "(b')^x (b')^y (b b)^z b b",
     {"branches": 0, "complete": True, "dioph_nodes": 0, "grids": 0,
      "pruned": 0, "reductions": 0, "states": 0},
     [
         ((0, 0, 2), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
         ((0, 1, 1), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
         ((0, 2, 0), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
         ((1, 0, 1), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
         ((1, 1, 0), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
         ((1, 2, 2), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
         ((2, 0, 0), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
         ((2, 1, 2), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
         ((2, 2, 1), [(0, 0, 3), (0, 3, 0), (3, 0, 0)]),
     ]),
    ("direct-z2-z2/d3/1", "(b')^x b a' (b' a' b)^y (b')^z",
     {"branches": 0, "complete": True, "dioph_nodes": 12, "grids": 0,
      "reductions": 0, "states": 0, "pruned": 0},
     [
         ((0, 1, 1), [(0, 0, 2), (0, 2, 0), (2, 0, 0)]),
         ((1, 1, 0), [(0, 0, 2), (0, 2, 0), (2, 0, 0)]),
     ]),
    ("free-z2-z3/d3/1", "(a a' b')^x b (a)^y a' b' (b')^z",
     {"branches": 8, "complete": True, "dioph_nodes": 0, "grids": 6,
      "reductions": 6, "states": 73, "pruned": 0},
     [
         ((0, 1, 0), [(0, 0, 3), (0, 2, 0), (3, 0, 0)]),
         ((1, 1, 2), [(0, 0, 3), (0, 2, 0), (3, 0, 0)]),
         ((2, 1, 1), [(0, 0, 3), (0, 2, 0), (3, 0, 0)]),
     ]),
    ("free-z2-z3/d3/0", "(b b')^x (b' a b')^y b (b)^z",
     {"branches": 2, "complete": False, "dioph_nodes": 0, "grids": 5,
      "reductions": 26, "states": 199, "pruned": 0},
     [((0, 0, 2), [(0, 0, 3), (1, 0, 0)])]),
    ("free-z2-z3/d2/3", "(a' b')^x (b' b b)^y a'",
     {"branches": 2, "complete": False, "dioph_nodes": 0, "grids": 1,
      "reductions": 3, "states": 96, "pruned": 0},
     [((1, 1), [(0, 3)])]),
    ("path-p3/d2/1", "(a' a a)^x (c b)^y c' b'",
     {"branches": 4, "complete": True, "dioph_nodes": 7, "grids": 1,
      "reductions": 1, "states": 9, "pruned": 0},
     [((0, 1), [(0, 2), (2, 0)])]),
    ("path-p3/d3/1", "(a c')^x (c')^y (c')^z c a",
     {"branches": 4, "complete": False, "dioph_nodes": 0, "grids": 12,
      "reductions": 47, "states": 305, "pruned": 0},
     [
         ((1, 0, 0), [(0, 0, 2), (0, 2, 0)]),
         ((1, 1, 1), [(0, 0, 2), (0, 2, 0)]),
     ]),
    # the pair join's instance (flagged: FACTOR_CAP refuses a split)
    ("path-p3/d3/3", "(a' c' b')^x c (c')^y (c a b)^z",
     {"branches": 2, "complete": False, "dioph_nodes": 263, "grids": 105,
      "reductions": 772, "states": 560, "pruned": 0},
     [
         ((0, 1, 0), [(0, 2, 0)]),
         ((1, 1, 1), [(0, 2, 0)]),
         ((1, 1, 1), [(0, 2, 0), (2, 0, 2)]),
         ((2, 1, 2), [(0, 2, 0)]),
         ((2, 1, 2), [(0, 2, 0), (2, 0, 2)]),
         ((3, 1, 3), [(0, 2, 0)]),
         ((3, 1, 3), [(0, 2, 0), (2, 0, 2)]),
         ((4, 1, 4), [(0, 2, 0)]),
         ((4, 1, 4), [(0, 2, 0), (2, 0, 2)]),
         ((5, 1, 5), [(0, 2, 0)]),
         ((5, 1, 5), [(0, 2, 0), (2, 0, 2)]),
         ((6, 1, 6), [(0, 2, 0)]),
         ((6, 1, 6), [(0, 2, 0), (2, 0, 2)]),
         ((7, 1, 7), [(0, 2, 0)]),
         ((7, 1, 7), [(0, 2, 0), (2, 0, 2)]),
         ((8, 1, 8), [(0, 2, 0)]),
         ((8, 1, 8), [(0, 2, 0), (2, 0, 2)]),
         ((9, 1, 9), [(0, 2, 0), (2, 0, 2)]),
         ((10, 1, 10), [(0, 2, 0), (2, 0, 2)]),
         ((11, 1, 11), [(0, 2, 0), (2, 0, 2)]),
         ((12, 1, 12), [(0, 2, 0), (2, 0, 2)]),
     ]),
    ("hnn-z2/d1/4", "(a' t t')^x",
     {"branches": 2, "complete": True, "dioph_nodes": 0, "grids": 1,
      "reductions": 1, "states": 1, "pruned": 0},
     [((0,), [(2,)])]),
    ("hnn-z2/d2/3", "(a t')^x t' t (t a)^y",
     {"branches": 1, "complete": False, "dioph_nodes": 0, "grids": 36,
      "reductions": 36, "states": 37, "pruned": 0},
     [
         ((0, 0), []),
         ((1, 1), [(1, 1)]),
         ((2, 2), [(1, 1)]),
         ((3, 3), [(1, 1)]),
     ]),
    ("hnn-z2/d3/1", "(a' a' a)^x t (t')^y (t a a)^z",
     {"branches": 2, "complete": False, "dioph_nodes": 0, "grids": 47,
      "reductions": 194, "states": 92, "pruned": 0},
     [
         ((0, 1, 0), [(2, 0, 0)]),
         ((0, 2, 1), [(0, 1, 1), (2, 0, 0)]),
         ((0, 3, 2), [(0, 1, 1), (2, 0, 0)]),
     ]),
    ("amalgam-z4-z2-z4/d2/1", "(b a)^x (b')^y b'",
     {"branches": 16, "complete": False, "dioph_nodes": 0, "grids": 8,
      "reductions": 10, "states": 54, "pruned": 0},
     [((0, 3), [(0, 4)])]),
    ("amalgam-z4-z2-z4/d2/2", "(b')^x a a' (b' a' b)^y b",
     {"branches": 58, "complete": True, "dioph_nodes": 0, "grids": 33,
      "reductions": 33, "states": 162, "pruned": 0},
     [((1, 0), [(0, 4), (4, 0)]), ((3, 2), [(0, 4), (4, 0)])]),
    ("amalgam-z4-z2-z4/d3/4", "(a')^x (b b' b)^y a' b' (b)^z a'",
     {"branches": 168, "complete": True, "dioph_nodes": 0, "grids": 75,
      "reductions": 75, "states": 508, "pruned": 0},
     [
         ((0, 0, 3), [(0, 0, 4), (0, 4, 0), (4, 0, 0)]),
         ((0, 2, 1), [(0, 0, 4), (0, 4, 0), (4, 0, 0)]),
         ((2, 0, 1), [(0, 0, 4), (0, 4, 0), (4, 0, 0)]),
         ((2, 2, 3), [(0, 0, 4), (0, 4, 0), (4, 0, 0)]),
     ]),
    ("z-in-z-index-2/d3/1", "(s' t' s')^x (t s t')^y (t)^z s",
     {"branches": 48, "dioph_nodes": 71, "pruned": 38, "complete": True,
      "grids": 0, "reductions": 0, "states": 0},
     [
         ((1, 0, 3), []),
         ((1, 1, 1), []),
         ((2, 0, 8), [(2, 0, 10)]),
         ((2, 1, 6), [(2, 0, 10)]),
         ((2, 2, 4), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((2, 3, 2), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((2, 4, 0), [(2, 5, 0)]),
         ((3, 0, 13), [(2, 0, 10)]),
         ((3, 1, 11), [(2, 0, 10)]),
         ((3, 2, 9), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((3, 3, 7), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((3, 4, 5), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((3, 5, 3), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((3, 6, 1), [(2, 5, 0)]),
     ]),
]


#: cases whose answer is also checked by the oracle, on this box
ORACLE_BOX = {"path-p3/d3/3": 3}


@pytest.mark.parametrize("key, text, diagnostics, components", CASES,
                         ids=[case[0] for case in CASES])
def test_search_work_is_pinned(key, text, diagnostics, components):
    e = parse_expr(text)
    backend = build_backend(GROUPS[key.split("/")[0]])
    report = {}
    sols = solve_exponent(backend, e, diagnostics=report)
    assert report == diagnostics
    assert sols.vars == e.variables
    assert sorted((c.base, list(c.periods)) for c in sols.components) == [
        (base, periods) for base, periods in components]
    if key in ORACLE_BOX:
        assert compare(backend, e, sols, ORACLE_BOX[key])["ok"]


#: one case of each group, and two reduction solves where no
#: outcome reaches the grid stage
REPORT_CASES = list({
    key.split("/")[0]: (key.split("/")[0], text) for key, text, _d, _c in CASES
}.values()) + [("free-z2-z3", "(a)^x"), ("free-z2-z3", "(a b)^x b")]


@pytest.mark.parametrize("group, text", REPORT_CASES)
def test_every_group_reports_every_key(group, text):
    report = {}
    solve_exponent(build_backend(GROUPS[group]), parse_expr(text),
                   diagnostics=report)
    assert sorted(report) == sorted(REPORT_KEYS)


@pytest.mark.parametrize("group, text", [
    ("path-p3", "(a c')^x (c')^y (c')^z c a"),
    ("hnn-z2", "(a' a' a)^x t (t')^y (t a a)^z"),
])
def test_a_spent_budget_reports_every_key(group, text):
    report = {}
    with pytest.raises(BudgetExceededError):
        solve_exponent(build_backend(GROUPS[group]), parse_expr(text),
                       states_budget=5, diagnostics=report)
    assert sorted(report) == sorted(REPORT_KEYS)
