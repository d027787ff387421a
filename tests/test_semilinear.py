"""Semilinear set algebra against set-theoretic ground truth."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from knapsolve.errors import BudgetExceededError, InputError
from knapsolve.expr import Renaming
from knapsolve.semilinear import (
    DiophSolver,
    LinearSet,
    SemilinearSet,
    solve_dioph_nonneg,
)


def apply(matrix, x):
    """The product matrix.x."""
    return tuple(sum(a * xi for a, xi in zip(row, x)) for row in matrix)


def box_points(S, bound):
    d = S.dim
    return {
        v
        for v in itertools.product(range(bound + 1), repeat=d)
        if S.membership(v)
    }


def test_membership_base_point():
    S = SemilinearSet(("x", "y"), [LinearSet((2, 1), [])])
    assert S.membership((2, 1))
    assert not S.membership((2, 2))


def test_membership_two_periods():
    S = SemilinearSet(("x", "y"), [LinearSet((0, 0), [(2, 0), (0, 3)])])
    assert not S.membership((1, 1))
    assert S.membership((4, 3))


def test_membership_dimension_mismatch():
    S = SemilinearSet(("x",), [LinearSet((0,), [(1,)])])
    with pytest.raises(InputError):
        S.membership((1, 2))


def test_solve_dioph_single_solution():
    # 2x + 3y = 7
    S = solve_dioph_nonneg(((2, 3),), (7,))
    assert box_points(S, 10) == {(2, 1)}


def test_solve_dioph_homogeneous():
    # 2x - 3y = 0
    S = solve_dioph_nonneg(((2, -3),), (0,))
    expected = {(3 * k, 2 * k) for k in range(8)}
    assert box_points(S, 21) == {v for v in expected if max(v) <= 21}


def test_solve_dioph_unsatisfiable():
    S = solve_dioph_nonneg(((0,),), (1,))
    assert S.is_empty_representation()


def test_solve_dioph_against_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randrange(1, 3)
        d = rng.randrange(1, 4)
        matrix = [
            tuple(rng.randrange(-3, 4) for _ in range(d)) for _ in range(rows)
        ]
        rhs = tuple(rng.randrange(-4, 8) for _ in range(rows))
        S = solve_dioph_nonneg(tuple(matrix), rhs)
        for v in itertools.product(range(9), repeat=d):
            assert S.membership(v) == (apply(matrix, v) == rhs), (matrix, rhs, v)


def test_intersect_lcm():
    S1 = SemilinearSet(("x",), [LinearSet((0,), [(2,)])])
    S2 = SemilinearSet(("x",), [LinearSet((0,), [(3,)])])
    inter = S1.intersect(S2)
    assert box_points(inter, 30) == {(v,) for v in range(0, 31, 6)}


def test_intersect_idempotent():
    S = SemilinearSet(("x", "y"), [LinearSet((1, 0), [(2, 1)])])
    assert box_points(S.intersect(S), 12) == box_points(S, 12)


def test_intersect_parity_empty():
    S1 = SemilinearSet(("x",), [LinearSet((0,), [(2,)])])
    S2 = SemilinearSet(("x",), [LinearSet((1,), [(2,)])])
    assert box_points(S1.intersect(S2), 20) == set()


def test_intersect_aligns_by_name():
    S1 = SemilinearSet(("x", "y"), [LinearSet((1, 2), [])])
    S2 = SemilinearSet(("y", "x"), [LinearSet((2, 1), [])])
    assert box_points(S1.intersect(S2), 4) == {(1, 2)}


def test_direct_sum():
    S1 = SemilinearSet(("x",), [LinearSet((1,), [(2,)])])
    S2 = SemilinearSet(("y",), [LinearSet((0,), [(3,)])])
    S = S1.direct_sum(S2)
    assert S.vars == ("x", "y")
    assert box_points(S, 12) == {
        (1 + 2 * a, 3 * b) for a in range(6) for b in range(5)
        if 1 + 2 * a <= 12 and 3 * b <= 12
    }
    assert S.magnitude() == 3


def test_direct_sum_empty_annihilates():
    S1 = SemilinearSet(("x",), [LinearSet((1,), [])])
    S2 = SemilinearSet.empty(("y",))
    assert S1.direct_sum(S2).is_empty_representation()


def test_direct_sum_overlap_rejected():
    S = SemilinearSet(("x",), [LinearSet((1,), [])])
    with pytest.raises(InputError):
        S.direct_sum(S)


def test_restrict():
    S = SemilinearSet(("x", "y"), [LinearSet((2, 1), [])])
    assert box_points(S.restrict(("x",)), 4) == {(2,)}
    diag = SemilinearSet(("x", "y"), [LinearSet((0, 0), [(1, 1)])])
    assert box_points(diag.restrict(("y",)), 4) == {(v,) for v in range(5)}
    assert SemilinearSet.empty(("x", "y")).restrict(("y",)).is_empty_representation()


def test_magnitude():
    S = SemilinearSet(("x", "y"), [LinearSet((2, 1), [(0, 3)])])
    assert S.magnitude() == 3
    assert SemilinearSet.empty(("x",)).magnitude() == 0
    S2 = SemilinearSet(
        ("x",), [LinearSet((5,), []), LinearSet((0,), [(7,)])]
    )
    assert S2.magnitude() == 7


def test_affine_substitute():
    S = SemilinearSet(("x",), [LinearSet((0,), [(1,)])])
    out = S.affine_substitute({"x": 2}, {"x": 3})
    assert box_points(out, 30) == {(3 + 2 * k,) for k in range(14)}
    S2 = SemilinearSet(("x",), [LinearSet((1,), [(2,)])])
    out2 = S2.affine_substitute({"x": 3}, {"x": 1})
    assert box_points(out2, 30) == {(4 + 6 * k,) for k in range(5)}


def random_semilinear(rng, var_names):
    d = len(var_names)
    comps = []
    for _ in range(rng.randrange(0, 4)):
        base = tuple(rng.randrange(0, 5) for _ in range(d))
        periods = [
            tuple(rng.randrange(0, 5) for _ in range(d))
            for _ in range(rng.randrange(0, 3))
        ]
        comps.append(LinearSet(base, periods))
    return SemilinearSet(var_names, comps)


def test_random_ops_against_definitions():
    rng = random.Random(20_24)
    for _ in range(60):
        d = rng.randrange(1, 4)
        names = tuple("xyz"[:d])
        S1 = random_semilinear(rng, names)
        S2 = random_semilinear(rng, names)
        bound = 20
        pts1 = S1.points_in_box(bound)
        pts2 = S2.points_in_box(bound)
        inter = S1.intersect(S2)
        uni = S1.union(S2)
        for v in itertools.product(range(0, bound + 1, 3), repeat=d):
            m1, m2 = v in pts1, v in pts2
            assert S1.membership(v) == m1
            assert inter.membership(v) == (m1 and m2)
            assert uni.membership(v) == (m1 or m2)


def test_points_in_box_matches_membership():
    rng = random.Random(99)
    for _ in range(20):
        d = rng.randrange(1, 3)
        names = tuple("xy"[:d])
        S = random_semilinear(rng, names)
        pts = S.points_in_box(10)
        for v in itertools.product(range(11), repeat=d):
            assert (v in pts) == S.membership(v)


@st.composite
def linear_sets_and_bounds(draw):
    d = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, 4)] * d)
    return (LinearSet(draw(vector), draw(st.lists(vector, max_size=4))),
            draw(st.integers(0, 6)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(linear_sets_and_bounds())
def test_linear_points_in_box_are_the_box_points_it_contains(case):
    # oracle.compare reads an answer's box points through points_in_box
    L, bound = case
    assert L.points_in_box(bound) == {
        v for v in itertools.product(range(bound + 1), repeat=L.dim)
        if L.contains(v)
    }


def test_union_commutative_associative():
    rng = random.Random(5)
    names = ("x", "y")
    A = random_semilinear(rng, names)
    B = random_semilinear(rng, names)
    C = random_semilinear(rng, names)
    assert A.union(B).points_in_box(9) == B.union(A).points_in_box(9)
    assert A.union(B.union(C)).points_in_box(9) == A.union(B).union(C).points_in_box(9)


def test_json_round_trip():
    S = SemilinearSet(("x", "y"), [LinearSet((1, 2), [(3, 0)])])
    assert SemilinearSet.from_json_dict(S.to_json_dict()) == S


# -- intersection with a renaming diagonal, and the slack cap -------------

occurrences = st.lists(st.sampled_from("xyz"), min_size=1, max_size=4)


def renamed(occs):
    """(names, K) of expr.Renaming over the occurrence list occs."""
    renaming = Renaming(tuple(dict.fromkeys(occs)))
    names = tuple(renaming.fresh(var) for var in occs)
    return names, renaming.diagonal()


@st.composite
def sets_and_diagonals(draw, occs=occurrences):
    names, K = renamed(draw(occs))
    d = len(names)
    vector = st.tuples(*[st.integers(0, 3)] * d)
    comps = draw(st.lists(
        st.builds(LinearSet, vector, st.lists(vector, max_size=3)),
        max_size=3,
    ))
    return SemilinearSet(draw(st.permutations(names)), comps), K


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sets_and_diagonals())
def test_on_diagonal_equals_intersect(case):
    S, K = case
    out = S.on_diagonal(K)
    assert out.vars == S.vars
    assert out == S.intersect(K)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sets_and_diagonals(occs=st.lists(st.sampled_from("xyz"), min_size=1,
                                        max_size=3, unique=True)))
def test_on_diagonal_without_repeats_returns_the_set(case):
    S, K = case
    assert S.on_diagonal(K).components == S.components


def minimal_solutions(matrix, num_vars, cap):
    """DiophSolver's minimal solutions of matrix.x = 0 whose slack, the
    last coordinate, is at most 1: its periods and bases, sorted."""
    d = num_vars - 1
    a = tuple(tuple(row[:d]) for row in matrix)
    solver = DiophSolver(cap)
    bases, _ = solver.solve(a, tuple(-row[d] for row in matrix), d)
    _, periods = solver.solve(a, (0,) * len(matrix), d)
    return sorted([p + (0,) for p in periods] + [b + (1,) for b in bases])


def uncapped_minimal_solutions(matrix, num_vars, cap):
    """The minimal-solution search without the slack cap, as a reference."""
    columns = [tuple(row[j] for row in matrix) for j in range(num_vars)]

    def apply(x):
        return tuple(sum(a * xj for a, xj in zip(row, x)) for row in matrix)

    def dominated(t, basis):
        return any(all(a >= b for a, b in zip(t, s)) for s in basis)

    basis, frontier = [], []
    for j in range(num_vars):
        unit = tuple(1 if i == j else 0 for i in range(num_vars))
        (frontier if any(columns[j]) else basis).append(unit)
    explored = len(frontier)
    while frontier:
        next_frontier = {}
        for t in frontier:
            value = apply(t)
            if not any(value):
                if not dominated(t, basis):
                    basis.append(t)
                continue
            for j in range(num_vars):
                if sum(a * b for a, b in zip(value, columns[j])) >= 0:
                    continue
                child = tuple(x + (i == j) for i, x in enumerate(t))
                if not dominated(child, basis):
                    next_frontier[child] = True
        explored += len(next_frontier)
        if explored > cap:
            raise BudgetExceededError("reference search", cap)
        frontier = [t for t in next_frontier if not dominated(t, basis)]
    return basis


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-4, 4)] * (n + 1)), min_size=1, max_size=3)))
def test_slack_cap_keeps_the_solution_sequence(matrix):
    num_vars = len(matrix[0])
    try:
        reference = uncapped_minimal_solutions(matrix, num_vars, 3_000)
    except BudgetExceededError:
        return
    capped = minimal_solutions(matrix, num_vars, 3_000)
    assert capped == sorted([m for m in reference if m[-1] <= 1])


@st.composite
def structured_systems(draw):
    """Homogenised matrices [A | -c] of the shapes the solver splits on.

    A is block-diagonal up to a column permutation; a block may have
    only even coefficients, with an odd or even right-hand side; a zero
    column or a row whose only nonzero entry is the slack may be added.
    """
    shapes = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 3)),
                           min_size=1, max_size=3))
    n = sum(width for _rows, width in shapes) + draw(st.integers(0, 1))
    rows, first = [], 0
    for height, width in shapes:
        scale = draw(st.sampled_from((1, 2)))
        for _ in range(height):
            row = [0] * n
            row[first:first + width] = [
                scale * a for a in draw(st.lists(
                    st.integers(-3, 3), min_size=width, max_size=width))]
            rows.append(row + [-draw(st.integers(-5, 5))])
        first += width
    if draw(st.booleans()):
        rows.append([0] * n + [draw(st.integers(-2, 2))])
    order = draw(st.permutations(range(n)))
    return [tuple(row[j] for j in order) + (row[n],) for row in rows]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(structured_systems())
def test_block_search_matches_the_reference(matrix):
    num_vars = len(matrix[0])
    try:
        reference = uncapped_minimal_solutions(matrix, num_vars, 5_000)
    except BudgetExceededError:
        return
    assert minimal_solutions(matrix, num_vars, 5_000) == sorted(
        m for m in reference if m[-1] <= 1)


def test_independent_blocks_stay_under_the_cap():
    # one component pair of the intersection over Z7 x Z5 of
    # (a b)^x (a a b)^y (b a)^z a (a b b)^w: four independent equations
    # 7 lam_i - 5 mu_i = c_i, which exhaust the cap when searched as one
    matrix = [[0] * 8 for _ in range(4)]
    for i in range(4):
        matrix[i][3 - i], matrix[i][7 - i] = 7, -5
    rhs = (-3, -4, -2, -2)
    solver = DiophSolver()
    S = solve_dioph_nonneg(tuple(map(tuple, matrix)), rhs, solver=solver)
    assert solver.nodes < 100
    (comp,) = S.components
    assert apply(matrix, comp.base) == rhs
    # each block's solutions are its least one plus N (5, 7)
    assert all(comp.base[3 - i] < 5 for i in range(4))
    assert set(comp.periods) == {
        tuple(5 if j == 3 - i else 7 if j == 7 - i else 0 for j in range(8))
        for i in range(4)
    }
