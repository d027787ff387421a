"""Graph-product solver: preprocessing, reductions, grids, full pipeline."""

import gc
import itertools
import random
import weakref

import pytest

from knapsolve.errors import BudgetExceededError
from knapsolve.expr import ExponentExpression, expr_from_entries, parse_expr
from knapsolve.gp_solver import (
    GraphProductBackend,
    GraphProductScheme,
    ReductionSearch,
    factor_entries,
    simplify_power_factorization,
    solve_exponent_graph_product,
    two_dim_trace_solve,
)
from knapsolve.gp_solver import _ordered_factorizations
from knapsolve.groups import IntegerGroup, build_backend, cyclic_group
from knapsolve.oracle import compare
from knapsolve.reduction import SEARCH_STATES_CAP, Limits, solve_by_reduction
from knapsolve.semilinear import LinearSet, SemilinearSet
from knapsolve.trace import independent_traces, is_connected, project_pair
from knapsolve.unary_automata import word_pair_power_solutions


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


def search_solve(backend, e, states_budget=SEARCH_STATES_CAP,
                 diagnostics=None):
    """e over a graph product by the reduction search on the whole
    group, as solve_exponent solves every graph product that is neither
    a join nor Z2 * Z2, unless e lies in one infinite cyclic subgroup."""
    return solve_by_reduction(GraphProductScheme(backend), e,
                              Limits(None, states_budget, diagnostics))


def z2_z2_factor(backend, e):
    """The Z2 * Z2 direct factor of a join, such as {a, c} of path P3,
    and e's projection onto its letters, as the join split hands them to
    that factor's solve."""
    (factor,) = [f for f in backend.direct_factors
                 if getattr(f, "cyclic_extension", None) is not None]
    return factor, expr_from_entries(factor_entries(factor, e))


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
    for spent in (((0, 1),), ((1, 1),)):
        search = ReductionSearch(backend.monoid, {}, 0, 1, SEARCH_STATES_CAP)
        assert search.use_dfs
        # a state is (items, factor counts, records); its cost is (splits,
        # creations), the creations a sorted (key, count) tuple
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


def reference_two_dim_trace_solve(p, u, s, q, v, t):
    """The two-dimensional trace solver over the projections onto every
    dependent vertex pair, (i, i) included, as it ran before it skipped
    the projections another pair implies: a reference for
    two_dim_trace_solve."""
    names = ("x", "y")
    constraint = None
    for i, j in u.monoid.dependent_vertex_pairs():
        pu, pv = project_pair(u, i, j), project_pair(v, i, j)
        pp, ps = project_pair(p, i, j), project_pair(s, i, j)
        pq, pt = project_pair(q, i, j), project_pair(t, i, j)
        if not pu and not pv:
            if pp + ps == pq + pt:
                continue
            return []
        if pu and pv:
            local = SemilinearSet(names, [
                LinearSet((a, c), [] if (b, d) == (0, 0) else [(b, d)])
                for a, b, c, d in word_pair_power_solutions(pp, pu, ps, pq, pv, pt)
            ])
        else:
            if pu:
                pre, per, post, target = pp, pu, ps, pq + pt
            else:
                pre, per, post, target = pq, pv, pt, pp + ps
            slack = len(target) - len(pre) - len(post)
            if slack < 0 or slack % len(per):
                return []
            k = slack // len(per)
            if pre + per * k + post != target:
                return []
            base, free = ((k, 0), (0, 1)) if pu else ((0, k), (1, 0))
            local = SemilinearSet(names, [LinearSet(base, [free])])
        constraint = local if constraint is None else constraint.intersect(local)
        if constraint.is_empty_representation():
            return []
    lines = set()
    for comp in constraint.components:
        b, d = comp.periods[0] if comp.periods else (0, 0)
        lines.add((comp.base[0], b, comp.base[1], d))
    return sorted(lines)


def random_connected(backend, rng, lo, hi):
    """A seeded connected nonempty trace of lo..hi-1 letters."""
    letters = sorted(backend.alphabet)
    while True:
        u = backend.elem_from_word(tuple(
            rng.choice(letters) for _ in range(rng.randrange(lo, hi))))
        if u.atoms and is_connected(u):
            return u


def test_two_dim_matches_the_all_pairs_reference():
    """Skipping the implied one-vertex projections keeps every line.  Half
    the draws are p u^x s = (p u^k) u^y s, which has the line x = k + y,
    and half are drawn freely."""
    rng = random.Random(67)
    for backend in (free_z2_z3(), path_p3(), path_p4()):
        letters = sorted(backend.alphabet)

        def rt(hi):
            return backend.elem_from_word(tuple(
                rng.choice(letters) for _ in range(rng.randrange(0, hi))))

        for draw in range(40):
            u = random_connected(backend, rng, 1, 4)
            p, s = rt(3), rt(3)
            if draw % 2:
                v, q, t = u, p * u.pow(rng.randrange(0, 3)), s
            else:
                v, q, t = random_connected(backend, rng, 1, 4), rt(3), rt(3)
            lines = two_dim_trace_solve(p, u, s, q, v, t)
            assert lines == reference_two_dim_trace_solve(p, u, s, q, v, t)
            assert lines or not draw % 2


# -- power factorization grids -----------------------------------------------


def reference_power_factorization(u, m):
    """simplify_power_factorization as it ran before it built each
    prefix once per column combination, with no cache: every bit-vector
    K multiplies its forms' prefixes again.  A reference for the list
    and its order."""
    monoid = u.monoid
    empty = monoid.empty_trace()
    if m == 1:
        return [(0, (("power", empty, empty),))]
    gamma = len(monoid.vertices)
    col_options = []
    for j in range(1, m):
        opts = []
        for c in range(gamma + 1):
            for parts in _ordered_factorizations(u.pow(c), m - j + 1):
                opts.append((c, parts[0], parts[1:]))
        col_options.append(opts)
    seen = set()
    out = []
    for combo in itertools.product(*col_options):
        s = {j: combo[j - 1][1] for j in range(1, m)}
        s[m] = empty
        p = {}
        for j in range(1, m):
            for offset, piece in enumerate(combo[j - 1][2]):
                p[(j + 1 + offset, j)] = piece
        if any(j1 < j2 < i2 < i1 and not independent_traces(piece1, piece2)
               for (i1, j1), piece1 in p.items()
               for (i2, j2), piece2 in p.items()):
            continue
        c_total = sum(combo[j - 1][0] for j in range(1, m))
        for bits in itertools.product((False, True), repeat=m):
            K = {j + 1 for j in range(m) if bits[j]}
            if any(piece.atoms if k in K else not independent_traces(piece, s[k])
                   for (i1, j1), piece in p.items() for k in range(j1 + 1, i1)):
                continue
            forms = []
            for j in range(1, m + 1):
                prefix = empty
                for l in range(1, j):
                    prefix = prefix * p[(j, l)]
                if j in K:
                    forms.append(("power", prefix, s[j]))
                else:
                    w = prefix * s[j]
                    if not w.atoms:
                        break
                    forms.append(("concrete", w))
            else:
                sig = (c_total, tuple(
                    (f[0], f[1].atoms, f[2].atoms) if f[0] == "power"
                    else (f[0], f[1].atoms)
                    for f in forms
                ))
                if sig not in seen:
                    seen.add(sig)
                    out.append((c_total, tuple(forms)))
    return out


def test_grids_match_the_per_k_reference():
    """Prefixes built once per column combination give the same shapes in
    the same order, for one to three factors."""
    rng = random.Random(71)
    for backend in (free_z2_z3(), path_p3(), path_p4()):
        for m in (1, 2, 3):
            for _ in range(2):
                u = random_connected(backend, rng, 1, 3)
                assert simplify_power_factorization(u, m) == \
                    reference_power_factorization(u, m), (u, m)



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


def test_free_product_diagonal_by_the_search():
    # the equation lies in <a b> and solves over Z; the span solver
    # must find the diagonal too
    S = search_solve(free_z2_z3(), parse_expr("(a b)^x (b' a)^y"))
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


@pytest.mark.parametrize("text", ["(a)^x", "(b)^x a (b)^y a"])
def test_atomic_powers_are_one_in_the_one_search(text):
    # an atomic power that is 1 in its vertex group is a unary move of
    # the search, so the solve runs one search and no guess per power
    backend, e = free_z2_z3(), parse_expr(text)
    diag = {}
    S = solve_exponent_graph_product(backend, e, diagnostics=diag)
    assert diag["branches"] == 1
    rep = compare(backend, e, S, 8)
    assert rep["ok"], rep["mismatches"][:5]


def test_diagnostics_reported():
    # by the search: the solve takes this equation over Z
    backend = free_z2_z3()
    diag = {}
    search_solve(backend, parse_expr("(a b)^x (b' a)^y"), diagnostics=diag)
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
    # the path a - b - c over Z2, Z2, Z3 splits into b and Z2 * Z3 = {a,
    # c}, which the reduction search solves (Z2 * Z2 would solve over Z)
    diag = {}
    backend = GraphProductBackend(
        [cyclic_group(2, "a"), cyclic_group(2, "b"), cyclic_group(3, "c")],
        [(0, 1), (1, 2)],
    )
    with pytest.raises(BudgetExceededError):
        solve_exponent_graph_product(
            backend, parse_expr("(a c')^x (c')^y (c')^z c a"),
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
