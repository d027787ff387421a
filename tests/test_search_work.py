"""Search work pinned on fast corpus instances.

Each case solves one expression of the benchmark's solve corpus and
compares the whole diagnostics dict and the sorted answer with values
recorded before the shared search rules were each written once (one
lockstep automaton product, the splits cap applied by the search, one
components helper); path-p3/d3/3 was recorded before matched factor
pairs were joined power by power, and its answer is also checked by the
oracle.  Three inputs of the repeated-variable corpus were recorded
when Z and the finite extensions came to answer a repeated variable as
one unknown, with no diagonal of renamed copies.  The three
finite-extension cases were recorded when its walk came to guess each
exponent on its coset's cycle alone, and their answers are also checked
by the oracle.  Two solves over the path P4, which no corpus group
reaches, pin the depth-first search; they were recorded before
interaction_pairs was derived from below in one pass.  A change to the search's work then shows up here
as a counter change, before it moves an instance that sits near its
time limit in the benchmark.  The cases cover the nine corpus groups at
degrees 1-3 and give the same record under every hash seed, as the
searches order their records by the input (CI reruns the file under
eight seeds to guard that).  hnn-z2 and amalgam-z4-z2-z4 are virtually
cyclic and solve over Z, with no search; their cases pin the HNN
reduction search, called directly (test_hnn.search_solve).  path-p3 is
(Z2 * Z2) x Z2 after the join split, and Z2 * Z2 solves over Z too; its
cases pin the graph-product search on the Z2 * Z2 factor {a, c}, called
directly on the projection of the corpus expression that the join split
gives that factor (test_gp_solver.search_solve); their counters were
recorded on the whole solve, except dioph_nodes and the answer, which
held the join split's intersection with the factor {b}.  The first
path-P4 pin, (a c)^x c a, lies in the infinite cyclic subgroup <a c>
and solves over Z; it pins the depth-first search called directly
(test_gp_solver.search_solve), with the counters it recorded on the
whole solve.  Twelve cases re-recorded branches, states, grids and
reductions when a solve came to run one reduction search with every
power open, in place of one search per guess of which atomic powers are
1; their answers and complete flags did not move.  free-z2-z3/d3/2, the
instance whose time the span solver's record ids, the two-dimensional
solver's projection list and the grids' prefixes cut, was pinned with
the counters it had before those changes, the same under hash seeds 0-7.
"""

import pytest

from knapsolve.errors import BudgetExceededError
from knapsolve.expr import parse_expr
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.oracle import compare
from knapsolve.reduction import REPORT_KEYS
from test_gp_solver import search_solve as gp_search_solve, z2_z2_factor
from test_hnn import search_solve

#: virtually cyclic groups whose pins run the HNN reduction search
SEARCHED = ("hnn-z2", "amalgam-z4-z2-z4")
#: pins whose equation lies in one infinite cyclic subgroup, which
#: solve_exponent answers over Z: they run the graph-product search
CYCLIC = ("path-p4/dfs/0",)


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
    # not a join, so its solves run the depth-first search
    "path-p4": {
        "type": "GraphProduct",
        "vertices": [_z(2, "a"), _z(2, "b"), _z(2, "c"), _z(2, "d")],
        "edges": [[0, 1], [1, 2], [2, 3]],
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
     {"branches": 1, "complete": True, "dioph_nodes": 0, "grids": 6,
      "reductions": 6, "states": 23, "pruned": 0},
     [
         ((0, 1, 0), [(0, 0, 3), (0, 2, 0), (3, 0, 0)]),
         ((1, 1, 2), [(0, 0, 3), (0, 2, 0), (3, 0, 0)]),
         ((2, 1, 1), [(0, 0, 3), (0, 2, 0), (3, 0, 0)]),
     ]),
    ("free-z2-z3/d3/0", "(b b')^x (b' a b')^y b (b)^z",
     {"branches": 1, "complete": False, "dioph_nodes": 0, "grids": 5,
      "reductions": 26, "states": 108, "pruned": 0},
     [((0, 0, 2), [(0, 0, 3), (1, 0, 0)])]),
    # the slowest solve-corpus instance; recorded when the span solver
    # came to key its bundles by record ids, with its counters unchanged
    ("free-z2-z3/d3/2", "(a b')^x (b')^y (b a)^z a",
     {"branches": 1, "complete": False, "dioph_nodes": 0, "grids": 40,
      "reductions": 388, "states": 354, "pruned": 0},
     [
         ((0, 1, 1), [(0, 3, 0)]),
         ((1, 2, 0), [(0, 3, 0)]),
     ]),
    ("free-z2-z3/d2/3", "(a' b')^x (b' b b)^y a'",
     {"branches": 1, "complete": False, "dioph_nodes": 0, "grids": 2,
      "reductions": 11, "states": 92, "pruned": 0},
     [((1, 1), [(0, 3)])]),
    ("path-p3/d2/1", "(a' a a)^x (c b)^y c' b'",
     {"branches": 1, "complete": True, "dioph_nodes": 0, "grids": 1,
      "reductions": 1, "states": 7, "pruned": 0},
     [((0, 1), [(0, 2), (2, 0)])]),
    ("path-p3/d3/1", "(a c')^x (c')^y (c')^z c a",
     {"branches": 1, "complete": False, "dioph_nodes": 0, "grids": 15,
      "reductions": 60, "states": 118, "pruned": 0},
     [
         ((1, 0, 0), [(0, 0, 2), (0, 2, 0)]),
         ((1, 1, 1), [(0, 0, 2), (0, 2, 0)]),
     ]),
    # the pair join's instance (flagged: FACTOR_CAP refuses a split)
    ("path-p3/d3/3", "(a' c' b')^x c (c')^y (c a b)^z",
     {"branches": 1, "complete": False, "dioph_nodes": 0, "grids": 105,
      "reductions": 772, "states": 322, "pruned": 0},
     [
         ((0, 1, 0), [(0, 2, 0)]),
         ((1, 1, 1), [(0, 2, 0)]),
         ((1, 1, 1), [(0, 2, 0), (1, 0, 1)]),
         ((2, 1, 2), [(0, 2, 0)]),
         ((2, 1, 2), [(0, 2, 0), (1, 0, 1)]),
         ((3, 1, 3), [(0, 2, 0)]),
         ((3, 1, 3), [(0, 2, 0), (1, 0, 1)]),
         ((4, 1, 4), [(0, 2, 0)]),
         ((4, 1, 4), [(0, 2, 0), (1, 0, 1)]),
         ((5, 1, 5), [(0, 2, 0)]),
         ((5, 1, 5), [(0, 2, 0), (1, 0, 1)]),
         ((6, 1, 6), [(0, 2, 0)]),
         ((6, 1, 6), [(0, 2, 0), (1, 0, 1)]),
         ((7, 1, 7), [(0, 2, 0)]),
         ((7, 1, 7), [(0, 2, 0), (1, 0, 1)]),
         ((8, 1, 8), [(0, 2, 0)]),
         ((8, 1, 8), [(0, 2, 0), (1, 0, 1)]),
         ((9, 1, 9), [(0, 2, 0), (1, 0, 1)]),
         ((10, 1, 10), [(0, 2, 0), (1, 0, 1)]),
         ((11, 1, 11), [(0, 2, 0), (1, 0, 1)]),
     ]),
    ("hnn-z2/d1/4", "(a' t t')^x",
     {"branches": 1, "complete": True, "dioph_nodes": 0, "grids": 1,
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
     {"branches": 1, "complete": False, "dioph_nodes": 0, "grids": 32,
      "reductions": 136, "states": 55, "pruned": 0},
     [
         ((0, 1, 0), [(2, 0, 0)]),
         ((0, 2, 1), [(0, 1, 1), (2, 0, 0)]),
         ((0, 3, 2), [(0, 1, 1), (2, 0, 0)]),
     ]),
    ("amalgam-z4-z2-z4/d2/1", "(b a)^x (b')^y b'",
     {"branches": 7, "complete": False, "dioph_nodes": 0, "grids": 8,
      "reductions": 10, "states": 49, "pruned": 0},
     [((0, 3), [(0, 4)])]),
    ("amalgam-z4-z2-z4/d2/2", "(b')^x a a' (b' a' b)^y b",
     {"branches": 21, "complete": True, "dioph_nodes": 0, "grids": 30,
      "reductions": 30, "states": 106, "pruned": 0},
     [((1, 0), [(0, 4), (4, 0)]), ((3, 2), [(0, 4), (4, 0)])]),
    ("amalgam-z4-z2-z4/d3/4", "(a')^x (b b' b)^y a' b' (b)^z a'",
     {"branches": 52, "complete": True, "dioph_nodes": 0, "grids": 68,
      "reductions": 68, "states": 206, "pruned": 0},
     [
         ((0, 0, 3), [(0, 0, 4), (0, 4, 0), (4, 0, 0)]),
         ((0, 2, 1), [(0, 0, 4), (0, 4, 0), (4, 0, 0)]),
         ((2, 0, 1), [(0, 0, 4), (0, 4, 0), (4, 0, 0)]),
         ((2, 2, 3), [(0, 0, 4), (0, 4, 0), (4, 0, 0)]),
     ]),
    ("z-in-z-index-2/d3/1", "(s' t' s')^x (t s t')^y (t)^z s",
     {"branches": 4, "dioph_nodes": 42, "pruned": 2, "complete": True,
      "grids": 0, "reductions": 0, "states": 0},
     [
         ((1, 0, 3), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((1, 1, 1), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((2, 0, 8), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((2, 1, 6), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((2, 2, 4), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((2, 3, 2), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
         ((2, 4, 0), [
             (2, 0, 10), (2, 1, 8), (2, 2, 6), (2, 3, 4), (2, 4, 2),
             (2, 5, 0),
         ]),
     ]),
]

#: repeated-variable inputs of the benchmark's solve-repeated corpus:
#: they pin how the leaf groups answer a repeated variable themselves,
#: Z with one row over the distinct variables and the finite extension
#: with a walk that refines each variable to the lcm of its cycles
REPEATED_CASES = [
    ("integers/rep/1", "(t t')^z t' (t)^x (t')^y (t)^x t'",
     {"branches": 0, "complete": True, "dioph_nodes": 6, "grids": 0,
      "pruned": 0, "reductions": 0, "states": 0},
     [
         ((0, 1, 0), [(0, 1, 2), (1, 0, 0)]),
     ]),
    ("z-in-z-index-2/rep/1", "(t t')^y t (s')^z (t)^x (s' t)^y",
     {"branches": 4, "complete": True, "dioph_nodes": 8, "grids": 0,
      "pruned": 2, "reductions": 0, "states": 0},
     [
         ((0, 1, 1), [(0, 1, 2), (2, 0, 2)]),
         ((1, 0, 0), [(0, 1, 2), (2, 0, 2)]),
         ((2, 0, 1), [(0, 1, 2), (2, 0, 2)]),
     ]),
    ("z-in-z-index-2/rep/2", "(t' t)^z (t)^y (s s)^y s' (s)^z t (t')^x",
     {"branches": 4, "complete": True, "dioph_nodes": 19, "grids": 0,
      "pruned": 2, "reductions": 0, "states": 0},
     [
         ((0, 1, 4), [(0, 2, 10), (1, 0, 2)]),
         ((0, 2, 9), [(0, 2, 10), (1, 0, 2)]),
         ((1, 0, 1), [(0, 2, 10), (1, 0, 2)]),
     ]),
]

#: depth-first search solves, keyed "path-p4/dfs/index"
DFS_CASES = [
    ("path-p4/dfs/0", "(a c)^x c a",
     {"branches": 1, "complete": False, "dioph_nodes": 0, "grids": 4,
      "pruned": 0, "reductions": 12, "states": 401},
     [((1,), [])]),
    ("path-p4/dfs/1", "a^x (b c)^y c b a",
     {"branches": 1, "complete": True, "dioph_nodes": 3, "grids": 1,
      "pruned": 0, "reductions": 1, "states": 88},
     [((1, 1), [(0, 2), (2, 0)])]),
]

#: cases whose answer is also checked by the oracle, on this box
ORACLE_BOX = {"path-p3/d3/3": 3, "z-in-z-index-2/d3/1": 6,
              "integers/rep/1": 6, "z-in-z-index-2/rep/1": 6, "z-in-z-index-2/rep/2": 6,
              "path-p4/dfs/0": 8}

PINNED = CASES + REPEATED_CASES + DFS_CASES


def _pinned_solve(key, text):
    """(solve, backend, e) of a pin, keyed by its key or its group: the
    reduction search called directly where the group or the equation
    solves over Z (module docstring), else solve_exponent."""
    group = key.split("/")[0]
    backend, e = build_backend(GROUPS[group]), parse_expr(text)
    if group == "path-p3":
        return (gp_search_solve,) + z2_z2_factor(backend, e)
    if key in CYCLIC:
        return gp_search_solve, backend, e
    return (search_solve if group in SEARCHED else solve_exponent,
            backend, e)


@pytest.mark.parametrize("key, text, diagnostics, components", PINNED,
                         ids=[case[0] for case in PINNED])
def test_search_work_is_pinned(key, text, diagnostics, components):
    solve, backend, e = _pinned_solve(key, text)
    report = {}
    sols = solve(backend, e, diagnostics=report)
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
    solve, backend, e = _pinned_solve(group, text)
    with pytest.raises(BudgetExceededError):
        solve(backend, e, states_budget=5, diagnostics=report)
    assert sorted(report) == sorted(REPORT_KEYS)
