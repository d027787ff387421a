"""HNN-extensions, amalgams: reduction, equality, elements, powers, solver.

Hnn(F, A = B = F) and amalgams of finite factors over a subgroup of
index 2 in each solve over Z (module virtually_cyclic), so tests of the
HNN reduction search on such groups call it directly, through
search_solve.
"""

import gc
import random
import weakref

import pytest

from knapsolve.errors import BudgetExceededError
from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.gp_solver import solve_exponent_graph_product
from knapsolve.groups import build_backend, cyclic_group, solve_exponent
from knapsolve.hnn import (
    AmalgamBackend,
    BrittonWord,
    HnnBackend,
    amalgam_embed,
    HnnReductionSearch,
    HnnScheme,
    amalgam_embed_expr,
    britton_reduce,
    hnn_equal,
    hnn_power_presentation,
    is_well_behaved_bw,
    solve_exponent_amalgam,
    solve_exponent_hnn,
    two_dim_hnn_solve,
)
from knapsolve.oracle import compare
from knapsolve.reduction import SEARCH_STATES_CAP, Limits, solve_by_reduction


def search_solve(backend, e, states_budget=SEARCH_STATES_CAP,
                 diagnostics=None):
    """e over an Hnn or Amalgam backend by the HNN reduction search, as
    solve_exponent solves every such group that is not virtually
    cyclic; an amalgam is searched on its HNN embedding."""
    if isinstance(backend, AmalgamBackend):
        backend, e = backend.hnn, amalgam_embed_expr(backend, e)
    return solve_by_reduction(HnnScheme(backend), e,
                              Limits(None, states_budget, diagnostics))


def z2_id():
    """H = <Z2, t | t' a t = a>, isomorphic to Z2 x Z."""
    return HnnBackend(cyclic_group(2, "a"), "t", [(), ("a",)], [(), ("a",)])


def z3_inv():
    """Stable letter conjugates Z3 by inversion."""
    return HnnBackend(
        cyclic_group(3, "b"), "t",
        [(), ("b",), ("b", "b")],
        [(), ("b", "b"), ("b",)],
    )


def z4_half():
    """Z4 base with associated subgroup {1, a^2}."""
    return HnnBackend(
        cyclic_group(4, "a"), "t", [(), ("a", "a")], [(), ("a", "a")]
    )


def z4_amalgam():
    """Z4 *_{Z2} Z4, identifying a^2 with b^2."""
    return AmalgamBackend(
        cyclic_group(4, "a"), cyclic_group(4, "b"),
        [("a", "a")], [("b", "b")],
    )


def random_word(rng, backend, lo, hi):
    letters = sorted(backend.alphabet)
    return tuple(rng.choice(letters) for _ in range(rng.randrange(lo, hi)))


# -- Britton reduction -------------------------------------------------------


def test_pin_both_directions():
    backend = z2_id()
    assert britton_reduce(backend, ("t'", "a", "t")) == backend.base_bw(("a",))
    assert britton_reduce(backend, ("t", "a", "t'")) == backend.base_bw(("a",))
    unchanged = backend.parse(("t", "a", "t"))
    assert britton_reduce(backend, unchanged) == unchanged


def test_pin_respects_subgroup():
    backend = z4_half()
    # a^2 crosses the stable letter, a does not
    assert britton_reduce(backend, ("t'", "a", "a", "t")).is_base()
    assert britton_reduce(backend, ("t'", "a", "t")).tcount == 2


def test_reduce_idempotent_and_consistent():
    rng = random.Random(67)
    backends = [z2_id(), z3_inv(), z4_half()]
    for _ in range(60):
        backend = rng.choice(backends)
        w = backend.parse(random_word(rng, backend, 0, 9))
        r = britton_reduce(backend, w)
        assert r.tcount <= w.tcount
        assert britton_reduce(backend, r) == r
        assert hnn_equal(backend, w, r)


# -- equality ----------------------------------------------------------------


def test_equal_connecting_element():
    backend = z2_id()
    assert hnn_equal(backend, backend.parse(("a", "t")), backend.parse(("t", "a")))
    assert not hnn_equal(backend, backend.parse(("t",)), backend.parse(("t'",)))
    w = backend.parse(("t", "a", "t", "a"))
    assert hnn_equal(backend, w, w)


def reduce_product(backend, u, v):
    """A reduced word equal to uv; cancellation happens at the junction."""
    return britton_reduce(backend, backend.concat(u, v))


def test_equal_agrees_with_product_inverse():
    rng = random.Random(71)
    backends = [z2_id(), z3_inv(), z4_half()]
    for _ in range(60):
        backend = rng.choice(backends)
        u = britton_reduce(backend, random_word(rng, backend, 0, 7))
        v = britton_reduce(backend, random_word(rng, backend, 0, 7))
        via_product = reduce_product(backend, u, backend.bw_inv(v)).is_identity()
        assert hnn_equal(backend, u, v) == via_product


def test_reduce_product_cancels_junction():
    backend = z2_id()
    got = reduce_product(
        backend, backend.parse(("t", "a")), backend.parse(("t'",))
    )
    assert got == backend.base_bw(("a",))
    u = backend.parse(("a", "t", "a", "t'"))
    assert reduce_product(backend, u, backend.bw_inv(u)).is_identity()


# -- group operations --------------------------------------------------------


def test_elements_take_the_least_coset_representative():
    backend = z4_half()
    elem = backend.elem_from_word
    # a^2 in A crosses t: its segment's representative is the empty word
    assert elem(("a", "a", "t")) == elem(("t", "a", "a")) == BrittonWord(
        [(), ("a", "a")], (1,))
    assert elem(("a", "a", "a", "t")) == elem(("a", "t", "a", "a"))
    assert elem(("a", "t")) != elem(("t", "a"))
    # a pinch around a^2 is reduced away
    assert elem(("t'", "a", "a", "t")) == elem(("a", "a"))
    assert elem(("t", "t'")) == backend.identity_elem


def test_amalgam_elements_identify_the_amalgamated_squares():
    backend = z4_amalgam()
    elem = backend.elem_from_word
    assert elem(("a", "a")) == elem(("b", "b"))
    assert elem(("a", "a", "b")) == elem(("b", "a", "a"))
    assert elem(("a", "a", "b")) == elem(("b", "b", "b"))
    assert elem(("a", "b")) != elem(("b", "a"))


# -- power presentation ------------------------------------------------------


def test_power_presentation_well_behaved_unchanged():
    backend = z2_id()
    u = backend.parse(("t", "a"))
    s, v, p = hnn_power_presentation(backend, u)
    assert s.is_identity() and p.is_identity()
    assert v == u


def test_power_presentation_base_element():
    backend = z2_id()
    s, v, p = hnn_power_presentation(backend, backend.parse(("a",)))
    assert s.is_identity() and p.is_identity()
    assert v == backend.base_bw(("a",))


def test_power_presentation_peels_conjugation():
    backend = z4_half()
    s, v, p = hnn_power_presentation(backend, backend.parse(("t'", "a", "t")))
    assert v == backend.base_bw(("a",))
    assert s == backend.parse(("t'",))
    assert p == backend.parse(("t",))


def test_power_presentation_random_core_shape():
    # the size bound and the m <= 5 equalities are asserted inside
    rng = random.Random(73)
    backends = [z2_id(), z3_inv(), z4_half()]
    for _ in range(50):
        backend = rng.choice(backends)
        u = britton_reduce(backend, random_word(rng, backend, 1, 8))
        _s, v, _p = hnn_power_presentation(backend, u)
        if v.tcount:
            assert v.gs[0] == ()
            assert is_well_behaved_bw(backend, v)
        else:
            assert v.is_base()


# -- two-dimensional knapsack ------------------------------------------------


def test_two_dim_diagonal():
    backend = z2_id()
    u = backend.parse(("t", "a"))
    one = backend.identity_bw()
    lines = two_dim_hnn_solve(backend, (), one, u, one, one, u, one, ())
    assert _expand_lines(lines, 10) == {(z, z) for z in range(11)}


def test_two_dim_boundary_elements():
    backend = z2_id()
    u = backend.parse(("t", "a"))
    one = backend.identity_bw()
    # a (ta)^x = (ta)^y a
    lines = two_dim_hnn_solve(
        backend, ("a",), one, u, one, one, u, one, ("a",)
    )
    assert _expand_lines(lines, 8) == {(z, z) for z in range(9)}


def test_two_dim_signature_mismatch_empty():
    backend = z2_id()
    u = backend.parse(("t", "a"))
    w = backend.parse(("a", "t'"))
    one = backend.identity_bw()
    # t-exponents +1 against -1: no aligned run at any positive length,
    # and length 0 fails the base equation a != 1
    lines = two_dim_hnn_solve(backend, (), one, u, one, one, w, backend.base_bw(("a",)), ())
    assert lines == []


def test_two_dim_cache_never_serves_a_freed_backend():
    """A new backend at the address of a freed one gets its own lines.

    (t a a)^x = t^y holds for every even x = y over Z4 with A = B =
    {1, a a}, and only at x = y = 0 with A = B = 1.
    """
    def solve(backend):
        one = backend.identity_bw()
        u, v = backend.parse(("t", "a", "a")), backend.parse(("t",))
        return two_dim_hnn_solve(backend, (), one, u, one, one, v, one, ())

    refs = []
    for _ in range(50):
        backend = HnnBackend(
            cyclic_group(4, "a"), "t", [(), ("a", "a")], [(), ("a", "a")]
        )
        assert solve(backend) == [(0, 0, 0, 0), (2, 2, 2, 2)]
        refs.append(weakref.ref(backend))
    del backend
    gc.collect()
    for _ in range(200):
        backend = HnnBackend(cyclic_group(4, "a"), "t", [()], [()])
        assert solve(backend) == [(0, 0, 0, 0)]
    # address reuse is up to the allocator; what rules it out is that
    # the cache keeps every backend it holds entries of alive
    assert all(ref() is not None for ref in refs)


def _expand_lines(lines, box):
    got = set()
    for a, b, c, d in lines:
        z = 0
        while True:
            pt = (a + b * z, c + d * z)
            if pt[0] <= box and pt[1] <= box:
                got.add(pt)
            z += 1
            if (b == 0 and d == 0) or (pt[0] > box and pt[1] > box):
                break
    return got


def test_two_dim_against_brute_force():
    rng = random.Random(79)
    backends = [z2_id(), z3_inv(), z4_half()]
    done = 0
    while done < 14:
        backend = rng.choice(backends)
        sides = []
        for _ in range(2):
            u = britton_reduce(backend, random_word(rng, backend, 1, 6))
            _s, v, _p = hnn_power_presentation(backend, u)
            if not v.tcount:
                break
            letters = v.letters(backend.stable)
            sfx_at = rng.randrange(len(letters))
            pfx_at = rng.randrange(len(letters))
            sfx = (backend.identity_bw() if sfx_at == 0
                   else backend.parse(letters[sfx_at:]))
            pfx = (backend.identity_bw() if pfx_at == 0
                   else backend.parse(letters[:pfx_at]))
            if rng.random() < 0.5:
                sides.append((sfx, v, pfx))
            else:
                sides.append((
                    backend.bw_inv(pfx), backend.bw_inv(v), backend.bw_inv(sfx)
                ))
        if len(sides) < 2:
            continue
        done += 1
        ab = sorted(backend.ab)
        a, b = rng.choice(ab), rng.choice(ab)
        (u1, u, u2), (v1, v, v2) = sides
        lines = two_dim_hnn_solve(backend, a, u1, u, u2, v1, v, v2, b)
        expected = set()
        for x in range(11):
            for y in range(11):
                lhs = backend.concat(backend.base_bw(a), backend.concat(
                    backend.concat(u1, backend.bw_pow(u, x)), u2))
                rhs = backend.concat(backend.concat(
                    backend.concat(v1, backend.bw_pow(v, y)), v2),
                    backend.base_bw(b))
                if hnn_equal(backend, lhs, rhs):
                    expected.add((x, y))
        assert _expand_lines(lines, 10) == expected, (a, u1, u, u2, v1, v, v2, b)


# -- reduction enumeration ---------------------------------------------------


def enumerate_hnn_reductions(backend, items, powers=None, splits_budget=None,
                             creation_budget=None,
                             states_budget=SEARCH_STATES_CAP):
    """All reductions of refinements of the item tuple, within budgets.

    Defaults follow the completeness bounds for m entries: refinement
    length at most max(m, 7m - 12), so at most that minus m splits, and
    at most 4m - 8 atom creations.  Returns {records: orders}.
    """
    scheme = HnnScheme(backend)
    m = len(items)
    cap = scheme.max_splits(m)
    if splits_budget is not None:
        cap = min(cap, splits_budget)
    creation_cap = scheme.max_creations(m)
    if creation_budget is not None:
        creation_cap = min(creation_cap, creation_budget)
    search = HnnReductionSearch(
        backend, powers or {}, cap, creation_cap, states_budget
    )
    results = search.run(tuple(items))
    assert search.states <= states_budget
    return results


def test_cancel_inverse_pair():
    backend = z2_id()
    u = britton_reduce(backend, ("t", "a", "t", "a"))
    items = [("C", u), ("C", backend.bw_inv(u))]
    results = enumerate_hnn_reductions(backend, items)
    assert frozenset() in results


def test_base_only_tuple():
    backend = z2_id()
    a = backend.base_bw(("a",))
    good = enumerate_hnn_reductions(backend, [("C", a), ("C", a)])
    assert frozenset() in good
    bad = enumerate_hnn_reductions(backend, [("C", a), ("C", a), ("C", a)])
    assert frozenset() not in bad


def test_generalized_cancellation_script():
    backend = z2_id()
    ta = backend.parse(("t", "a"))
    at_inv = backend.parse(("a", "t'"))
    a = backend.base_bw(("a",))
    # t a . a . a t' . a multiplies to 1: one generalized cancellation
    # around the middle constant, then a base cancellation
    items = [("C", ta), ("C", a), ("C", at_inv), ("C", a)]
    results = enumerate_hnn_reductions(backend, items)
    assert frozenset() in results
    # without the trailing a the product is a != 1
    partial = enumerate_hnn_reductions(backend, [("C", ta), ("C", a), ("C", at_inv)])
    assert frozenset() not in partial


def test_atom_creation_budget():
    backend = z3_inv()
    b = backend.base_bw(("b",))
    items = [("C", b), ("C", b), ("C", b)]
    results = enumerate_hnn_reductions(backend, items)
    assert frozenset() in results
    none = enumerate_hnn_reductions(backend, items, creation_budget=0)
    assert frozenset() not in none


def test_search_states_budget_reported():
    backend = z2_id()
    u = britton_reduce(backend, ("t", "a", "t", "a", "t", "a"))
    items = [("C", u), ("C", backend.bw_inv(u))] * 2
    with pytest.raises(BudgetExceededError):
        enumerate_hnn_reductions(backend, items, states_budget=3)


# -- the full solver ---------------------------------------------------------


def test_solver_delegates_base_power():
    backend = z2_id()
    S = solve_exponent_hnn(backend, parse_expr("a^x"))
    assert S.points_in_box(6) == {(k,) for k in range(0, 7, 2)}


def test_solver_stable_letter_power():
    backend = z2_id()
    S = solve_exponent_hnn(backend, parse_expr("t^x t'^3"))
    assert S.points_in_box(8) == {(3,)}


def test_solver_diagonal():
    backend = z2_id()
    S = solve_exponent_hnn(backend, parse_expr("(t a)^x (a t')^y"))
    assert S.points_in_box(8) == {(z, z) for z in range(9)}


def test_solver_diagnostics_reported():
    backend = z2_id()
    diag = {}
    search_solve(backend, parse_expr("(t a)^x (a t')^y"), diagnostics=diag)
    assert diag["branches"] >= 1
    assert diag["states"] >= 1
    assert "complete" in diag


def test_solver_oracle_random():
    rng = random.Random(83)
    backends = [("z2", z2_id()), ("z3", z3_inv())]
    for trial in range(12):
        name, backend = backends[trial % len(backends)]
        letters = sorted(backend.alphabet)
        deg = rng.randrange(1, 3)
        names = ("x", "y")[:deg]
        factors = []
        for k in range(deg):
            p = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 4)))
            t = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 3)))
            factors.append((p, names[k], t))
        e = ExponentExpression(tuple(factors))
        S = solve_exponent_hnn(backend, e)
        rep = compare(backend, e, S, 8)
        assert rep["ok"], (name, e.factors, rep["mismatches"][:5])


def test_backend_description_round_trip():
    desc = {
        "type": "Hnn",
        "base": {"type": "CyclicGroup", "order": 2, "generator": "a"},
        "stable_letter": "t",
        "A": [[], ["a"]],
        "B": [[], ["a"]],
    }
    backend = build_backend(desc)
    assert backend.word_problem(("t", "a", "t'", "a"))
    S = solve_exponent_hnn(desc, parse_expr("a^x"))
    assert S.points_in_box(5) == {(k,) for k in range(0, 6, 2)}


# -- amalgamated products ----------------------------------------------------


def test_amalgam_embed_conjugates_left_factor():
    backend = z4_amalgam()
    assert amalgam_embed(backend, ("a", "b")) == ("t'", "a", "t", "b")
    assert amalgam_embed(backend, ("b",)) == ("b",)


def test_amalgam_word_problem_identifies_squares():
    backend = z4_amalgam()
    assert backend.word_problem(("a", "a", "b'", "b'"))
    assert not backend.word_problem(("a", "b"))
    assert not backend.word_problem(("a", "b'"))


def test_amalgam_solver_against_subgroup_relation():
    backend = z4_amalgam()
    # a^x = a^2; the identified subgroup does not add solutions
    S = solve_exponent_amalgam(backend, parse_expr("a^x a' a'"))
    e = parse_expr("a^x a' a'")
    rep = compare(backend, e, S, 10)
    assert rep["ok"], rep["mismatches"][:5]
    assert S.points_in_box(10) == {(2,), (6,), (10,)}


def test_amalgam_solver_oracle_random():
    rng = random.Random(89)
    backend = z4_amalgam()
    letters = sorted(backend.alphabet)
    for trial in range(8):
        deg = rng.randrange(1, 3)
        names = ("x", "y")[:deg]
        factors = []
        for k in range(deg):
            p = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 3)))
            t = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 2)))
            factors.append((p, names[k], t))
        e = ExponentExpression(tuple(factors))
        S = solve_exponent_amalgam(backend, e)
        rep = compare(backend, e, S, 7)
        assert rep["ok"], (e.factors, rep["mismatches"][:5])


def test_amalgam_description_round_trip():
    desc = {
        "type": "Amalgam",
        "left": {"type": "CyclicGroup", "order": 4, "generator": "a"},
        "right": {"type": "CyclicGroup", "order": 4, "generator": "b"},
        "phi1": [["a", "a"]],
        "phi2": [["b", "b"]],
        "stable_letter": "t",
    }
    backend = build_backend(desc)
    assert backend.word_problem(("a", "a", "b", "b"))
    S = solve_exponent_amalgam(desc, parse_expr("b^x"))
    assert S.points_in_box(8) == {(k,) for k in range(0, 9, 4)}


# -- graph products against amalgams ------------------------------------------


def _z2(gen):
    return {"type": "CyclicGroup", "order": 2, "generator": gen}


@pytest.mark.parametrize("text", ["(a b)^x a b", "(a)^x b (b)^y a"])
def test_free_product_agrees_with_trivial_amalgam(text):
    # Z2 * Z2 through the graph-product side and the HNN side of the
    # guess-and-reduce driver (Z2 *_1 Z2 itself solves over Z)
    free = build_backend({"type": "FreeProduct", "children": [_z2("a"), _z2("b")]})
    amalgam = build_backend({
        "type": "Amalgam", "left": _z2("a"), "right": _z2("b"),
        "phi1": [[]], "phi2": [[]],
    })
    e = parse_expr(text)
    via_gp = solve_exponent_graph_product(free, e)
    via_hnn = search_solve(amalgam, e)
    assert via_gp.points_in_box(8) == via_hnn.points_in_box(8)


@pytest.mark.xfail(strict=True, reason=(
    "a generalized cancellation rejects a middle base element outside "
    "A u B even when the boundary base letters of its factors cancel it"
))
@pytest.mark.parametrize("kind, text", [
    ("hnn", "(t a)^x (a t')^y"),
    ("amalgam", "(a b)^x (b a)^y"),
])
def test_trivial_subgroup_inverse_powers(kind, text):
    # (t a)(a t') = 1 and (a b)(b a) = 1, so every x = y is a solution;
    # Z2 *_1 Z2 solves over Z, so its case runs the search directly
    if kind == "hnn":
        backend = HnnBackend(cyclic_group(2, "a"), "t", [()], [()])
        sols = solve_exponent_hnn(backend, parse_expr(text))
    else:
        backend = build_backend({
            "type": "Amalgam", "left": _z2("a"), "right": _z2("b"),
            "phi1": [[]], "phi2": [[]],
        })
        sols = search_solve(backend, parse_expr(text))
    assert {(k, k) for k in range(5)} <= sols.points_in_box(4)


def _hnn(base, subgroup):
    return {"type": "Hnn", "base": base, "stable_letter": "t",
            "A": subgroup, "B": subgroup}


#: Hnn(Z6, A = B = <a^3>)
_Z6_CUBE = _hnn({"type": "CyclicGroup", "order": 6, "generator": "a"},
                [[], ["a", "a", "a"]])


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: generalized cancellation assumes its middle and its "
    "result lie in A and B"))
@pytest.mark.parametrize("desc, text, missed", [
    (_Z6_CUBE, "(t' a' a')^x (a a t)^y", [(1, 1), (2, 2)]),
    (_Z6_CUBE, "(t' a')^x a' a' (t a')^y a' a'", [(1, 1)]),
    # Z4 *_{Z2} Z6 with a^2 = b^3
    ({"type": "Amalgam", "left": {"type": "CyclicGroup", "order": 4},
      "right": {"type": "CyclicGroup", "order": 6, "generator": "b"},
      "phi1": [["a", "a"]], "phi2": [["b", "b", "b"]]},
     "(b)^x a (a' b')^y b", [(0, 1), (6, 1)]),
    # Hnn(Z4, 1, 1)
    (_hnn({"type": "CyclicGroup", "order": 4, "generator": "a"}, [[]]),
     "(t a')^x a t' (a t')^y", [(2, 1), (3, 2)]),
], ids=["z6-cube", "z6-cube-tails", "z4-z2-z6", "z4-trivial"])
def test_boundary_base_letters_keep_solutions(desc, text, missed):
    # each missed point is a solution by the word problem; the answer is
    # flagged incomplete and leaves it out
    sols = solve_exponent(desc, parse_expr(text))
    assert all(sols.membership(point) for point in missed)
