"""Graph-product equations that live in one infinite cyclic subgroup.

When the first nontrivial period is s z s^-1 with z well-behaved, and
every period and tail, conjugated by s, is a well-behaved h with a
common power with z, all of them are powers of one primitive trace r
(Duboc's theorem on connected traces), and GraphProductBackend.solve
answers e over Z: h = r^(+-|h|/|r|) for the atom count |.|.  Pins:
solve-corpus hard/0, a root that is no period, path-P4's free product
{a, d} and a pin of the depth-first search, Z * Z2, and a join, whose
split leaves the equation to the factor it lies in.  Seeded draws
of powers of a random well-behaved root, conjugated by a random word,
over four graph products must take the route, come out complete and
equal brute force.  Equations with an element outside the root's
subgroup, an atomic period or a period of several parts keep the
search.
"""

import random

import pytest

from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.gp_solver import _solve_in_cyclic_subgroup
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.oracle import brute_force_solutions
from knapsolve.reduction import Limits
from knapsolve.trace import is_well_behaved
from knapsolve.words import invert_word

#: brute-force box per number of variables
BOX = {1: 8, 2: 5, 3: 3}


def cyclic(order, generator):
    return {"type": "CyclicGroup", "order": order, "generator": generator}


def graph_product(vertices, edges):
    return {"type": "GraphProduct", "vertices": vertices, "edges": edges}


#: name -> (description, generator letters)
GROUPS = {
    "z2-z3": (graph_product([cyclic(2, "a"), cyclic(3, "b")], []), "ab"),
    "path-p4": (graph_product(
        [cyclic(2, "a"), cyclic(2, "b"), cyclic(2, "c"), cyclic(2, "d")],
        [[0, 1], [1, 2], [2, 3]]), "abcd"),
    # (Z2 x Z2) * Z3: a and b commute
    "z2xz2-z3": (graph_product(
        [cyclic(2, "a"), cyclic(2, "b"), cyclic(3, "c")], [[0, 1]]), "abc"),
    "z-z2": (graph_product(
        [{"type": "IntegerGroup", "generator": "t"}, cyclic(2, "a")], []),
        "ta"),
    # (Z2 * Z3) x Z5, a join: c commutes with a and b
    "z2-z3xz5": (graph_product(
        [cyclic(2, "a"), cyclic(3, "b"), cyclic(5, "c")], [[0, 2], [1, 2]]),
        "abc"),
}


def routes(backend, e):
    """Whether the route takes e."""
    return _solve_in_cyclic_subgroup(backend, e, Limits(None, None, None)) \
        is not None


def routed(group, text):
    """(answer, report) of text over group, checked to take the route,
    complete and equal to brute force."""
    backend, e = build_backend(GROUPS[group][0]), parse_expr(text)
    report = {}
    sols = solve_exponent(backend, e, diagnostics=report)
    assert backend.direct_factors or routes(backend, e), text
    assert report["complete"] and report["states"] == 0, report
    box = BOX[len(e.variables)]
    assert sols.points_in_box(box) == brute_force_solutions(backend, e, box)
    return sols, report


def test_hard_0_is_y_equal_to_x_plus_z():
    # solve-corpus hard/0: b' a = (a b)^-1, so (a b)^(x - y + z) = 1
    sols, report = routed("z2-z3", "(a b)^x (b' a)^y (a b)^z")
    assert [(c.base, c.periods) for c in sols.components] == [
        ((0, 0, 0), ((0, 1, 1), (1, 1, 0)))]
    assert report["reductions"] == 0


def test_a_root_that_is_no_period():
    # a b a b = r^2 and b' a b' a b' a = r^-3 for r = a b
    sols, _report = routed("z2-z3", "(a b a b)^x (b' a b' a b' a)^y")
    assert sols.points_in_box(9) == {(3 * k, 2 * k) for k in range(4)}


@pytest.mark.parametrize("text, points", [
    # the free product {a, d}, which the depth-first search took 32,508
    # states over
    ("(a d)^x (d a)^y", {(k, k) for k in range(6)}),
    # test_search_work's path-p4/dfs/0, 401 states there
    ("(a c)^x c a", {(1,)}),
])
def test_path_p4(text, points):
    sols, _report = routed("path-p4", text)
    assert sols.points_in_box(5) == points


def test_z_z2_with_a_tail():
    sols, _report = routed("z-z2", "(t t a)^x (a t' t')^y (t t a)^z t t a")
    assert sols.points_in_box(3) == {
        (x, x + z + 1, z) for x in range(3) for z in range(3)
        if x + z + 1 <= 3}


def test_a_join_leaves_it_to_a_factor():
    # the split hands (a b)^x (b' a)^y to the factor Z2 * Z3, whose
    # solve takes the route, and checks c c' = 1 in Z5
    sols, _report = routed("z2-z3xz5", "(a b)^x c (b' a)^y c'")
    assert sols.points_in_box(5) == {(k, k) for k in range(6)}


def _draws(name, count):
    """count seeded expressions of degree 1-3 whose periods and tails
    are w r^k w^-1 for a random well-behaved root r and word w; a
    variable repeats in a third of the degree-3 ones."""
    desc, gens = GROUPS[name]
    backend = build_backend(desc)
    letters = [x for a in gens for x in (a, a + "'")]
    rng = random.Random(f"cyclic-subgroup-{name}")

    def word(lo, hi):
        return tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))

    out = []
    while len(out) < count:
        root = word(2, 4)
        if not is_well_behaved(backend.elem_from_word(root)):
            continue
        w = word(0, 2)

        def power(k):
            base = root if k >= 0 else invert_word(root)
            return w + base * abs(k) + invert_word(w)

        degree = 1 + len(out) % 3
        names = "xyz"[:degree]
        if degree == 3 and len(out) % 9 == 2:
            names = "xyx"
        out.append(ExponentExpression([
            (power(rng.choice((-2, -1, 1, 2))), var,
             power(rng.randint(-2, 2)))
            for var in names]))
    return backend, out


@pytest.mark.parametrize("name", ["path-p4", "z-z2", "z2-z3", "z2xz2-z3"])
def test_powers_of_one_root_match_brute_force(name):
    backend, draws = _draws(name, 24)
    taken = nonempty = 0
    for e in draws:
        taken += routes(backend, e)
        report = {}
        sols = solve_exponent(backend, e, diagnostics=report)
        assert report["complete"], e
        box = BOX[len(e.variables)]
        points = sols.points_in_box(box)
        assert points == brute_force_solutions(backend, e, box), e
        nonempty += bool(points)
    assert taken == len(draws)
    assert nonempty >= 8


@pytest.mark.parametrize("group, text", [
    # b a = a' (a b) a is not a power of a b
    ("z2-z3", "(a b)^x (b a)^y"),
    ("z2-z3", "(a b)^x (a b)^y b"),
    ("z2-z3", "(a)^x (b)^y"),
    ("z-z2", "(t)^x (t a t a)^y"),
    # a c and b lie in commuting parts of the period
    ("path-p4", "(a b c)^x (c' b' a')^y"),
    ("z2xz2-z3", "(a b)^x a b"),
], ids=["conjugate", "atomic-tail", "atomic", "z-atomic", "two-parts",
        "commuting"])
def test_the_route_rejects(group, text):
    assert not routes(build_backend(GROUPS[group][0]), parse_expr(text))
