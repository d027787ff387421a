"""Finite extensions: coset pushing, cycles, and the exponent solver."""

import random

import pytest

from knapsolve.errors import InputError
from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.finite_ext import FiniteExtBackend, solve_exponent_finite_ext
from knapsolve.gp_solver import GraphProductBackend
from knapsolve.groups import (
    IntegerGroup, build_backend, cyclic_group, solve_exponent,
)
from knapsolve.oracle import compare


def value_at(backend, d, u, z):
    """f^z(d) for the coset map f(c) = coset of c u, by pushing u^z."""
    return backend.push(d, tuple(u) * z)[1]


def z_in_z():
    """H = <t> = Z with index-2 subgroup <s>, s = t^2."""
    return FiniteExtBackend(
        IntegerGroup("s"),
        ["1", "t"],
        [
            ("1", "s", ["s"], "1"),
            ("1", "s'", ["s'"], "1"),
            ("1", "t", [], "t"),
            ("1", "t'", ["s'"], "t"),
            ("t", "s", ["s"], "t"),
            ("t", "s'", ["s'"], "t"),
            ("t", "t", ["s"], "1"),
            ("t", "t'", [], "1"),
        ],
    )


def z2_in_z4():
    """H = Z4 = <t> with subgroup {1, s}, s = t^2."""
    return FiniteExtBackend(
        cyclic_group(2, "s"),
        ["1", "t"],
        [
            ("1", "s", ["s"], "1"),
            ("1", "s'", ["s'"], "1"),
            ("1", "t", [], "t"),
            ("1", "t'", ["s"], "t"),
            ("t", "s", ["s"], "t"),
            ("t", "s'", ["s'"], "t"),
            ("t", "t", ["s"], "1"),
            ("t", "t'", [], "1"),
        ],
    )


def z3_in_s3():
    """Symmetric-group-style extension: rotations r with a flip coset f."""
    return FiniteExtBackend(
        cyclic_group(3, "r"),
        ["1", "f"],
        [
            ("1", "r", ["r"], "1"),
            ("1", "r'", ["r'"], "1"),
            ("1", "f", [], "f"),
            ("1", "f'", [], "f"),
            ("f", "r", ["r'"], "f"),
            ("f", "r'", ["r"], "f"),
            ("f", "f", [], "1"),
            ("f", "f'", [], "1"),
        ],
    )


# independent evaluations of the corpus extensions


def z_value(word):
    vals = {"t": 1, "t'": -1, "s": 2, "s'": -2}
    return sum(vals[a] for a in word)


def z4_value(word):
    vals = {"t": 1, "t'": 3, "s": 2, "s'": 2}
    return sum(vals[a] for a in word) % 4


def s3_perm(word):
    def rot(x):
        return (x + 1) % 3

    def rot_inv(x):
        return (x - 1) % 3

    def flip(x):
        return (-x) % 3

    funcs = {"r": rot, "r'": rot_inv, "f": flip, "f'": flip}
    perm = tuple(range(3))
    for a in word:
        perm = tuple(funcs[a](x) for x in perm)
    return perm


# -- word problem ------------------------------------------------------------


def test_word_problem_examples():
    backend = z_in_z()
    assert backend.word_problem(("t", "t", "s'"))
    assert not backend.word_problem(("t",))
    assert backend.word_problem(())


def test_word_problem_against_independent_evaluation():
    rng = random.Random(97)
    corpus = [
        (z_in_z(), lambda w: z_value(w) == 0),
        (z2_in_z4(), lambda w: z4_value(w) == 0),
        (z3_in_s3(), lambda w: s3_perm(w) == (0, 1, 2)),
    ]
    for backend, truth in corpus:
        letters = sorted(backend.alphabet)
        for _ in range(120):
            w = tuple(
                rng.choice(letters) for _ in range(rng.randrange(0, 11))
            )
            assert backend.word_problem(w) == truth(w), w


Z4_A = {"type": "CyclicGroup", "order": 4, "generator": "a"}
Z4_B = {"type": "CyclicGroup", "order": 4, "generator": "b"}


@pytest.mark.parametrize("desc, word", [
    (None, ("t", "t'")),
    ({"type": "Hnn", "base": Z4_A, "stable_letter": "t",
      "A": [[], ["a", "a"]], "B": [[], ["a", "a"]]}, ("a", "a'", "a'", "t")),
    ({"type": "Amalgam", "left": Z4_A, "right": Z4_B, "phi1": [["a", "a"]],
      "phi2": [["b", "b"]], "stable_letter": "t"}, ("a",)),
], ids=["finite-ext", "hnn", "amalgam"])
def test_norm_raises_without_element_form(desc, word):
    """A group without the geodesic part of the element protocol has no
    norm, and may not nest.

    Its group operations give no geodesic word, and the length of a
    word, reduced or not, is no bound on its element's geodesic length:
    t t' is the identity in Z, and over Hnn(Z4, A = B = {1, a^2},
    identity) a t and a a' a' t a a are one element.  So norm raises as
    GroupBackend's does, and the constructors that bound sizes by norms
    refuse it as a vertex, base or factor.
    """
    backend = z_in_z() if desc is None else build_backend(desc)
    with pytest.raises(NotImplementedError):
        backend.norm(word)
    with pytest.raises(InputError, match="^vertex 0: .* no geodesic"):
        GraphProductBackend([backend, cyclic_group(5, "c")], [])


# -- coset cycles ------------------------------------------------------------


def test_orbit_alternates_cosets():
    backend = z_in_z()
    assert backend._cycle("1", ("t",)) == 2
    assert [value_at(backend, "1", ("t",), z) for z in range(4)] == [
        "1", "t", "1", "t"]
    assert value_at(backend, "1", ("t",), 7) == "t"


def test_orbit_constant_for_subgroup_words():
    backend = z_in_z()
    assert backend._cycle("t", ("s",)) == 1
    assert value_at(backend, "t", ("s",), 5) == "t"


def test_cycle_matches_pushing_powers():
    """_cycle(d, u) is the first j <= |C| with f^j(d) = d."""
    for backend in (z_in_z(), z2_in_z4(), z3_in_s3()):
        l = len(backend.cosets)
        for d in backend.cosets:
            for u in (("t",), ("t", "t"), ("s",), ("f",), ("r", "f"), ("r",),
                      ("t'", "s")):
                if not set(u) <= backend.alphabet:
                    continue
                returns = [j for j in range(1, l + 1)
                           if value_at(backend, d, u, j) == d]
                assert backend._cycle(d, u) == returns[0], (d, u)


# -- the solver --------------------------------------------------------------


def test_solver_even_power_hits_four():
    backend = z_in_z()
    S = solve_exponent_finite_ext(backend, parse_expr("t^x t'^4"))
    assert S.points_in_box(10) == {(4,)}


def test_solver_odd_power_hits_three():
    backend = z_in_z()
    S = solve_exponent_finite_ext(backend, parse_expr("t^x t'^3"))
    assert S.points_in_box(10) == {(3,)}


def test_solver_identity_period_is_universal():
    backend = z_in_z()
    S = solve_exponent_finite_ext(backend, parse_expr("(t t')^x"))
    assert S.points_in_box(9) == {(k,) for k in range(10)}


def test_solver_subgroup_period():
    backend = z2_in_z4()
    S = solve_exponent_finite_ext(backend, parse_expr("(t t)^x"))
    assert S.points_in_box(9) == {(k,) for k in range(0, 10, 2)}


def test_solver_oracle_random():
    rng = random.Random(101)
    corpus = [
        ("z-index-2", z_in_z()),
        ("z2-in-z4", z2_in_z4()),
        ("z3-in-s3", z3_in_s3()),
    ]
    for trial in range(15):
        name, backend = corpus[trial % len(corpus)]
        letters = sorted(backend.alphabet)
        deg = rng.randrange(1, 3)
        names = ("x", "y")[:deg]
        factors = []
        for k in range(deg):
            p = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 4)))
            t = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 3)))
            factors.append((p, names[k], t))
        e = ExponentExpression(tuple(factors))
        S = solve_exponent_finite_ext(backend, e)
        rep = compare(backend, e, S, 9)
        assert rep["ok"], (name, e.factors, rep["mismatches"][:5])


@pytest.mark.parametrize("text, branches, pruned, components", [
    ("(t)^x (t)^y t'", 4, 2, 2),
    ("(t s)^x (s' t')^y (t)^z", 8, 4, 4),
    ("(t' s)^z s (t' t)^z t (s s)^y (t s)^y s (s)^x s'", 4, 4, 0),
])
def test_solver_diagnostics(text, branches, pruned, components):
    """Every guess is a branch; a leaf off coset 1 or without G-solutions
    is pruned, and each surviving leaf adds its components."""
    backend = z_in_z()
    e = parse_expr(text)
    diagnostics = {}
    S = solve_exponent(backend, e, diagnostics=diagnostics)
    assert (diagnostics["branches"], diagnostics["pruned"]) == (
        branches, pruned)
    assert len(S.components) == components
    report = compare(backend, e, S, 4)
    assert report["ok"], report["mismatches"][:5]


def test_solver_repeated_variable():
    backend = z_in_z()
    e = parse_expr("t^x s^y t^x")
    S = solve_exponent_finite_ext(backend, e)
    rep = compare(backend, e, S, 8)
    assert rep["ok"], rep["mismatches"][:5]


def test_brute_force_matches_on_a_wide_box():
    """elem_mul pushes each step of brute force through the table once
    per coset, so box 48 costs about 49^2 products of O(1), not O(n)
    pushes of s^n."""
    backend = z_in_z()
    e = parse_expr("(t t t)^x (s)^y (t')^z (s')^w")
    rep = compare(backend, e, solve_exponent(backend, e), 48)
    assert rep["ok"], rep["mismatches"][:5]


def test_dioph_memo_dies_with_its_solve():
    """The solve's DiophSolver memo answers the leaves' repeated systems,
    and a second solve of the same expression searches them again."""
    backend = z_in_z()
    e = parse_expr("(t)^x (s t)^x t (t)^x s' (s' t')^y (t)^z s'")
    reports = [{}, {}]
    answers = [solve_exponent(backend, e, diagnostics=r) for r in reports]
    assert answers[0].components == answers[1].components
    assert reports[0] == reports[1]
    assert reports[0]["dioph_nodes"] > 0


def test_backend_description_round_trip():
    desc = {
        "type": "FiniteExt",
        "subgroup": {"type": "CyclicGroup", "order": 2, "generator": "s"},
        "cosets": ["1", "t"],
        "rules": [
            ["1", "s", ["s"], "1"],
            ["1", "s'", ["s'"], "1"],
            ["1", "t", [], "t"],
            ["1", "t'", ["s"], "t"],
            ["t", "s", ["s"], "t"],
            ["t", "s'", ["s'"], "t"],
            ["t", "t", ["s"], "1"],
            ["t", "t'", [], "1"],
        ],
    }
    backend = build_backend(desc)
    assert backend.word_problem(("t", "t", "t", "t"))
    S = solve_exponent_finite_ext(desc, parse_expr("t^x"))
    assert S.points_in_box(9) == {(k,) for k in range(0, 10, 4)}
