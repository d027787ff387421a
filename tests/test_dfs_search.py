"""The graph-product depth-first search, over graphs that are not joins.

A graph product over a join splits into direct factors, and a free
product runs the span solver, so only a graph with edges that is not a
join reaches the depth-first search; no benchmark workload has one.
Two such graphs are tested here: the path P4 over Z2 vertices, and
Z2(a) - Z2(b) plus an isolated Z3(c), which is (Z2 x Z2) * Z3.

Seeded draws of degree 1-2 over each graph solve by the search itself
(test_gp_solver.search_solve), also those that lie in one infinite
cyclic subgroup, which solve_exponent answers over Z.  They run under a
states budget and are checked against brute force in a box; a draw that
spends the budget is skipped, and each graph must answer a minimum
number of draws.  interaction_pairs, which lists the item pairs the
search may bring together, is checked against the triple loop it
replaced on seeded item tuples, and one search pins the states it
stores.  The
search numbers its records in the order it first meets them, which the
input fixes, not the hash seed; CI reruns this file under eight hash
seeds to guard that.
"""

import random

import pytest

from knapsolve.errors import BudgetExceededError
from knapsolve.expr import parse_expr
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.gp_solver import GraphProductScheme
from knapsolve.oracle import compare
from test_gp_solver import search_solve

#: states budget of each drawn solve; a draw that spends it is skipped
STATES_BUDGET = 5000
#: brute-force box per number of variables
BOX = {1: 6, 2: 5}
DRAWS = 16
#: answered draws each graph must reach (15 and 16 under hash seeds 0-7)
MIN_ANSWERED = 14


def _z(order, gen):
    return {"type": "CyclicGroup", "order": order, "generator": gen}


#: name -> (description, generator letters without inverses)
GRAPHS = {
    "path-p4": ({
        "type": "GraphProduct",
        "vertices": [_z(2, "a"), _z(2, "b"), _z(2, "c"), _z(2, "d")],
        "edges": [[0, 1], [1, 2], [2, 3]],
    }, "abcd"),
    "z2xz2-free-z3": ({
        "type": "GraphProduct",
        "vertices": [_z(2, "a"), _z(2, "b"), _z(3, "c")],
        "edges": [[0, 1]],
    }, "abc"),
}


def _letters(gens):
    return [x for a in gens for x in (a, a + "'")]


def _draw(rng, letters):
    """Degree 1-2, periods of 1-3 letters, tails of 0-2."""
    parts = []
    for var in "xy"[:rng.randrange(1, 3)]:
        period = [rng.choice(letters) for _ in range(rng.randrange(1, 4))]
        parts.append("(" + " ".join(period) + ")^" + var)
        parts.extend(rng.choice(letters) for _ in range(rng.randrange(0, 3)))
    return " ".join(parts)


def test_the_graphs_run_the_depth_first_search():
    for desc, _gens in GRAPHS.values():
        backend = build_backend(desc)
        assert backend.direct_factors == ()
        assert GraphProductScheme(backend).search({}, 0, 0, 1).use_dfs


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_drawn_expressions_match_brute_force(name):
    desc, gens = GRAPHS[name]
    backend = build_backend(desc)
    rng = random.Random(f"dfs:{name}")
    letters = _letters(gens)
    answered = 0
    for _ in range(DRAWS):
        text = _draw(rng, letters)
        e = parse_expr(text)
        try:
            sols = search_solve(backend, e, states_budget=STATES_BUDGET)
        except BudgetExceededError:
            continue
        rep = compare(backend, e, sols, BOX[len(e.variables)])
        assert rep["ok"], (text, rep["mismatches"][:5])
        answered += 1
    assert answered >= MIN_ANSWERED


def _triple_loop_pairs(search, items):
    """i < j unless some r has i below r and r below j."""
    n = len(items)
    below = search._below(items)
    return [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if not any(i in below[r] and r in below[j]
                   for r in range(n) if r != i and r != j)
    ]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_interaction_pairs_match_the_triple_loop(name):
    desc, gens = GRAPHS[name]
    backend = build_backend(desc)
    search = GraphProductScheme(backend).search({}, 0, 0, 1)
    vertices = range(len(desc["vertices"]))
    rng = random.Random(f"pairs:{name}")
    letters = _letters(gens)
    for _ in range(200):
        items = []
        for fid in range(rng.randrange(2, 8)):
            if rng.random() < 0.5:
                word = [rng.choice(letters) for _ in range(rng.randrange(1, 4))]
                items.append(("C", backend.elem_from_word(tuple(word))))
            else:
                alph = rng.sample(vertices, rng.randrange(1, 3))
                items.append(("F", 0, fid, frozenset(alph)))
        assert search.interaction_pairs(items) == _triple_loop_pairs(
            search, items)


def test_a_state_is_stored_once():
    """Factor ids are canonical before the items are sorted, so two
    commuting factors of one power keep one order and each state one
    key.  Numbered after the sort, this search stored eight states
    twice (844 states)."""
    backend = build_backend(GRAPHS["z2xz2-free-z3"][0])
    e = parse_expr("(a' b' c')^x b (b b)^y b b'")
    diagnostics = {}
    sols = solve_exponent(backend, e, diagnostics=diagnostics)
    assert diagnostics["states"] == 836
    rep = compare(backend, e, sols, 5)
    assert rep["ok"], rep["mismatches"][:5]
