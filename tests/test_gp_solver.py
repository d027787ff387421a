"""Graph-product solver: preprocessing, reductions, grids, full pipeline."""

import gc
import random
import weakref

import pytest

from knapsolve.errors import BudgetExceededError
from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.gp_solver import (
    GraphProductBackend,
    GraphProductScheme,
    ReductionSearch,
    simplify_power_factorization,
    solve_exponent_graph_product,
    two_dim_trace_solve,
)
from knapsolve.groups import IntegerGroup, build_backend, cyclic_group
from knapsolve.oracle import compare
from knapsolve.reduction import SEARCH_STATES_CAP


def direct_z2_z2():
    return GraphProductBackend(
        [cyclic_group(2, "a"), cyclic_group(2, "b")], [(0, 1)]
    )


def free_z2_z3():
    return GraphProductBackend(
        [cyclic_group(2, "a"), cyclic_group(3, "b")], []
    )


def path_p3():
    return GraphProductBackend(
        [cyclic_group(2, "a"), cyclic_group(2, "b"), cyclic_group(2, "c")],
        [(0, 1), (1, 2)],
    )


def path_p4():
    return GraphProductBackend(
        [cyclic_group(2, "a"), cyclic_group(2, "b"), cyclic_group(2, "c"),
         cyclic_group(2, "d")],
        [(0, 1), (1, 2), (2, 3)],
    )


def free_f2():
    return GraphProductBackend(
        [IntegerGroup("a"), IntegerGroup("b")], []
    )


# -- preprocessing -----------------------------------------------------------


def test_preprocess_well_behaved_unchanged():
    backend = free_z2_z3()
    prep, _K = GraphProductScheme(backend).preprocess(parse_expr("(a b)^x"))
    assert len(prep.powers) == 1
    u, var = prep.powers[0]
    assert u == backend.elem_from_word(("a", "b"))
    assert var == "x"
    assert all(not t.atoms for t in prep.tails)


def test_preprocess_peels_aba():
    backend = free_z2_z3()
    prep, _K = GraphProductScheme(backend).preprocess(parse_expr("(a b a)^x"))
    assert len(prep.powers) == 1
    u, _var = prep.powers[0]
    assert u == backend.elem_from_word(("b",))
    # constants a ... a around the power, folded to the right by conjugation
    assert prep.tails[0] == backend.monoid.empty_trace()
    assert prep.tails[1] == backend.elem_from_word(("a", "a"))


def test_preprocess_free_product_keeps_degree():
    backend = free_z2_z3()
    e = parse_expr("(a b)^x (b b)^y a")
    prep, _K = GraphProductScheme(backend).preprocess(e)
    assert len(prep.powers) == len(e.factors)


def test_preprocess_renames_repeated_variable():
    backend = free_z2_z3()
    prep, K = GraphProductScheme(backend).preprocess(parse_expr("a^x b^y a^x"))
    assert prep.occ_vars == ("x", "y", "x_2")
    assert K.magnitude() <= 1
    assert K.membership((3, 0, 3))
    assert not K.membership((3, 0, 2))


# -- reduction enumeration ---------------------------------------------------


def enumerate_refinement_reductions(backend, items, powers=None,
                                    splits_budget=None, creation_budget=None,
                                    states_budget=SEARCH_STATES_CAP):
    """All reductions of refinements of the item tuple, within budgets.

    Defaults follow the completeness bounds for a tuple of m entries:
    refinements of length at most (3 alpha + 4) m^2 (for free products
    at most max(m, 7m - 12)), so at most that minus m splits, and at
    most m - 2 atom creations per vertex.  Returns {records: orders}.
    """
    scheme = GraphProductScheme(backend)
    m = len(items)
    cap = scheme.max_splits(m)
    if splits_budget is not None:
        cap = min(cap, splits_budget)
    creation_cap = scheme.max_creations(m)
    if creation_budget is not None:
        creation_cap = min(creation_cap, creation_budget)
    search = ReductionSearch(
        backend.monoid, powers or {}, cap, creation_cap, states_budget
    )
    results = search.run(tuple(items))
    # every emitted script stayed within the stated bounds by construction
    assert search.states <= states_budget
    return results


def test_single_cancellation_script():
    backend = free_f2()
    a = backend.elem_from_word(("a",))
    items = [("C", a), ("C", a.inv())]
    results = enumerate_refinement_reductions(backend, items)
    assert frozenset() in results


def test_no_reduction_without_refinement():
    backend = free_f2()
    a = backend.elem_from_word(("a",))
    ab = backend.elem_from_word(("a", "b"))
    b = backend.elem_from_word(("b",))
    items = [("C", a.inv()), ("C", ab), ("C", b.inv())]
    none = enumerate_refinement_reductions(
        backend, items, splits_budget=0, creation_budget=0
    )
    assert none == {}
    some = enumerate_refinement_reductions(backend, items)
    assert frozenset() in some


def test_free_product_script_with_atom_creation():
    backend = free_z2_z3()
    a = backend.elem_from_word(("a",))
    b = backend.elem_from_word(("b",))
    items = [("C", a), ("C", b), ("C", b), ("C", b), ("C", a)]
    results = enumerate_refinement_reductions(backend, items)
    assert frozenset() in results
    # the merge b.b -> b^2 is an atom creation; with none allowed the
    # tuple cannot reduce
    none = enumerate_refinement_reductions(
        backend, items, creation_budget=0
    )
    assert frozenset() not in none


def test_dominance_keeps_states_with_spare_creations():
    # b . b . b reduces only through the creation b.b -> b^2; a state
    # seen before with a creation spent somewhere must not stand in for
    # the same state reached with every creation left.  The depth-first
    # search, and with it this rule, runs where items commute: here in
    # Z2 x Z3
    backend = GraphProductBackend(
        [cyclic_group(2, "a"), cyclic_group(3, "b")], [(0, 1)]
    )
    b = backend.elem_from_word(("b",))
    items = (("C", b),) * 3
    for spent in ({0: 1}, {1: 1}):
        search = ReductionSearch(backend.monoid, {}, 0, 1, SEARCH_STATES_CAP)
        assert search.use_dfs
        search.seen[(items, (), frozenset())] = [(0, spent)]
        assert frozenset() in search.run(items), spent
        assert search.states > 0


def test_span_solver_keeps_spans_with_spare_creations():
    # over Z2 * Z3 the span solver solves every tuple once, for all the
    # creations its reductions spend.  In b^2 . b . b . b . b the span
    # b . b . b is reached both after b^2 . (b . b) -> b, which spends
    # two creations, and after the cancellation b^2 . b -> 1, which
    # spends none; solved in the first place, it must still reduce in
    # the second
    backend = free_z2_z3()
    b = backend.elem_from_word(("b",))
    b2 = backend.elem_from_word(("b", "b"))
    for items, cap, reduces in (
        ((("C", b),) * 3, 1, True),
        ((("C", b),) * 3, 0, False),
        ((("C", b2),) + (("C", b),) * 4, 1, True),
        ((("C", b2),) + (("C", b),) * 4, 0, False),
    ):
        search = ReductionSearch(backend.monoid, {}, 0, cap, SEARCH_STATES_CAP)
        assert not search.use_dfs
        assert (frozenset() in search.run(items)) is reduces, (len(items), cap)


def test_search_states_budget_reported():
    backend = path_p3()
    t = backend.elem_from_word(("a", "b", "c", "a", "b", "c"))
    items = [("C", t), ("C", t.inv())]
    with pytest.raises(BudgetExceededError):
        enumerate_refinement_reductions(backend, items, states_budget=3)


# -- two-dimensional trace knapsack ------------------------------------------


def test_two_dim_diagonal():
    backend = free_z2_z3()
    u = backend.elem_from_word(("a", "b"))
    empty = backend.monoid.empty_trace()
    lines = two_dim_trace_solve(empty, u, empty, empty, u, empty)
    assert lines == [(0, 1, 0, 1)]


def test_two_dim_cache_keeps_its_monoid_alive():
    """The cache keys by the monoid itself, so a freed monoid's address
    cannot be reused by a new one while its entries stand."""
    backend = free_z2_z3()
    u = backend.elem_from_word(("a", "b"))
    empty = backend.monoid.empty_trace()
    two_dim_trace_solve(empty, u, empty, empty, u, empty)
    ref = weakref.ref(backend.monoid)
    del backend, u, empty
    gc.collect()
    assert ref() is not None


def test_two_dim_index_shift():
    backend = free_z2_z3()
    u = backend.elem_from_word(("a", "b"))
    empty = backend.monoid.empty_trace()
    # ab (ab)^x = (ab)^y
    lines = two_dim_trace_solve(u, u, empty, empty, u, empty)
    assert lines == [(0, 1, 1, 1)]


def test_two_dim_conjugated_periods():
    backend = free_z2_z3()
    monoid = backend.monoid
    empty = monoid.empty_trace()
    ab = backend.elem_from_word(("a", "b"))
    ba = backend.elem_from_word(("b", "a"))
    a = backend.elem_from_word(("a",))
    # (ab)^x a = a (ba)^y
    lines = two_dim_trace_solve(empty, ab, a, a, ba, empty)
    assert lines == [(0, 1, 0, 1)]


def test_two_dim_against_brute_force():
    rng = random.Random(53)
    backends = [free_z2_z3(), path_p3()]
    done = 0
    while done < 25:
        backend = rng.choice(backends)
        monoid = backend.monoid
        letters = sorted(backend.alphabet)

        def rt(lo, hi):
            return backend.elem_from_word(tuple(
                rng.choice(letters) for _ in range(rng.randrange(lo, hi))
            ))

        u, v = rt(1, 4), rt(1, 4)
        from knapsolve.trace import is_connected
        if not u.atoms or not v.atoms:
            continue
        if not (is_connected(u) and is_connected(v)):
            continue
        p, s, q, t = rt(0, 3), rt(0, 3), rt(0, 3), rt(0, 3)
        done += 1
        lines = two_dim_trace_solve(p, u, s, q, v, t)
        # equality in the trace monoid: powers concatenate, they do not
        # reduce (the solver only passes irreducible periods)
        expected = {
            (x, y)
            for x in range(11)
            for y in range(11)
            if p * u.pow(x) * s == q * v.pow(y) * t
        }
        got = set()
        for a, b, c, d in lines:
            z = 0
            while True:
                pt = (a + b * z, c + d * z)
                if pt[0] <= 10 and pt[1] <= 10:
                    got.add(pt)
                z += 1
                if (b == 0 and d == 0) or (pt[0] > 10 and pt[1] > 10):
                    break
        assert got == expected


# -- power factorization grids -----------------------------------------------


def test_grid_contains_plain_concatenation_split():
    backend = free_z2_z3()
    u = backend.elem_from_word(("a", "b"))
    empty = backend.monoid.empty_trace()
    guesses = simplify_power_factorization(u, 2)
    assert (0, (("power", empty, empty), ("power", empty, empty))) in guesses


def test_grid_equivalence_exhaustive():
    """The grid disjunction matches all 2-splits of u^x for small u, x."""
    rng = random.Random(59)
    backends = [free_z2_z3(), direct_z2_z2(), path_p3()]
    from knapsolve.trace import is_connected
    checked = 0
    while checked < 12:
        backend = rng.choice(backends)
        monoid = backend.monoid
        letters = sorted(backend.alphabet)
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 3)))
        u = backend.elem_from_word(word)
        if not u.atoms or not is_connected(u):
            continue
        checked += 1
        # only splits into nonempty parts: in the solver every factor is
        # matched against a nonempty value
        expected = set()
        for x in range(5):
            power = u.pow(x)
            all_pos = set(range(len(power.atoms)))
            for down in power.downsets():
                y1 = power.subtrace(down)
                y2 = power.subtrace(all_pos - down)
                if y1.atoms and y2.atoms:
                    expected.add((y1.atoms, y2.atoms, x))
        got = set()
        for c, forms in simplify_power_factorization(u, 2):
            parts = []
            for form in forms:
                if form[0] == "power":
                    parts.append([
                        (form[1] * u.pow(k) * form[2], k) for k in range(1, 6)
                    ])
                else:
                    parts.append([(form[1], 0)])
            for (y1, k1), (y2, k2) in (
                (aa, bb) for aa in parts[0] for bb in parts[1]
            ):
                x = c + k1 + k2
                if x <= 4:
                    got.add((y1.atoms, y2.atoms, x))
        assert got == expected, word


# -- the full solver ---------------------------------------------------------


def test_direct_product_parity():
    backend = direct_z2_z2()
    S = solve_exponent_graph_product(backend, parse_expr("a^x b^y (a b)"))
    pts = S.points_in_box(8)
    assert pts == {
        (x, y) for x in range(9) for y in range(9) if x % 2 and y % 2
    }


def test_free_product_diagonal():
    backend = free_z2_z3()
    S = solve_exponent_graph_product(backend, parse_expr("(a b)^x (b' a)^y"))
    assert S.points_in_box(8) == {(z, z) for z in range(9)}


def test_unsolvable_is_empty():
    backend = free_z2_z3()
    S = solve_exponent_graph_product(backend, parse_expr("a^x b"))
    assert S.points_in_box(8) == set()


def test_identity_period_is_free():
    backend = free_z2_z3()
    S = solve_exponent_graph_product(backend, parse_expr("(a a)^x b^y b"))
    assert S.points_in_box(5) == {
        (x, y) for x in range(6) for y in range(6) if y % 3 == 2
    }


def test_diagnostics_reported():
    backend = free_z2_z3()
    diag = {}
    solve_exponent_graph_product(
        backend, parse_expr("(a b)^x (b' a)^y"), diagnostics=diag
    )
    assert diag["branches"] >= 1
    assert diag["states"] >= 1
    assert "complete" in diag


def test_diagnostics_count_states_when_the_budget_ends_the_search():
    backend = free_z2_z3()
    diag = {}
    with pytest.raises(BudgetExceededError):
        solve_exponent_graph_product(
            backend, parse_expr("(a b)^x (b b a)^y (a b b)^z"),
            states_budget=50, diagnostics=diag,
        )
    assert diag["states"] >= 50


def test_split_diagnostics_carry_every_key():
    diag = {}
    solve_exponent_graph_product(
        direct_z2_z2(), parse_expr("a^x b^y (a b)"), diagnostics=diag
    )
    # no search runs; the intersection of the two factors' sets does
    assert diag == {
        "branches": 0, "reductions": 0, "states": 0, "grids": 0,
        "complete": True, "dioph_nodes": 12, "pruned": 0,
    }


def test_split_diagnostics_count_states_when_the_budget_ends_the_search():
    diag = {}
    with pytest.raises(BudgetExceededError):
        solve_exponent_graph_product(
            path_p3(), parse_expr("(a c')^x (c')^y (c')^z c a"),
            states_budget=20, diagnostics=diag,
        )
    assert diag["states"] > 0


def test_non_join_graph_runs_the_depth_first_search():
    backend = path_p4()
    assert backend.direct_factors == ()
    assert GraphProductScheme(backend).search({}, 0, 0, 1).use_dfs
    for text in ("a^x b d^y b", "(a b)^x b a", "a^x d^y a d"):
        e = parse_expr(text)
        diag = {}
        S = solve_exponent_graph_product(backend, e, diagnostics=diag)
        assert diag["states"] > 0
        rep = compare(backend, e, S, 6)
        assert rep["ok"], (text, rep["mismatches"][:5])


def test_repeated_variable_occurrences():
    backend = free_z2_z3()
    e = parse_expr("a^x b^x (b' a)^y")
    S = solve_exponent_graph_product(backend, e)
    rep = compare(backend, e, S, 10)
    assert rep["ok"], rep["mismatches"]


def test_oracle_equivalence_random():
    rng = random.Random(61)
    backends = [
        ("direct", direct_z2_z2()),
        ("free", free_z2_z3()),
        ("path", path_p3()),
    ]
    for trial in range(18):
        name, backend = backends[trial % len(backends)]
        letters = sorted(backend.alphabet)
        deg = rng.randrange(1, 3)
        names = ("x", "y")[:deg]
        factors = []
        for k in range(deg):
            p = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 3)))
            t = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 2)))
            factors.append((p, names[k], t))
        e = ExponentExpression(tuple(factors))
        S = solve_exponent_graph_product(backend, e)
        rep = compare(backend, e, S, 10)
        assert rep["ok"], (name, e.factors, rep["mismatches"][:5])


def test_integer_vertex_groups():
    backend = free_f2()
    e = parse_expr("(a b)^x (b' a')^y")
    S = solve_exponent_graph_product(backend, e)
    assert S.points_in_box(6) == {(z, z) for z in range(7)}


def test_backend_description_round_trip():
    desc = {
        "type": "GraphProduct",
        "vertices": [
            {"type": "CyclicGroup", "order": 2, "generator": "a"},
            {"type": "CyclicGroup", "order": 2, "generator": "b"},
        ],
        "edges": [[0, 1]],
    }
    backend = build_backend(desc)
    assert backend.word_problem(("a", "b", "a", "b"))
    S = solve_exponent_graph_product(desc, parse_expr("a^x"))
    assert S.points_in_box(5) == {(k,) for k in range(0, 6, 2)}
