"""Brute-force oracle: enumeration and mismatch reporting.

brute_force_solutions meets in the middle on every backend, through the
group operations of the element protocol.  Seeded draws over a group of
each constructor (Z, a cyclic group, path-P3, a join, free products,
HNN-extensions, amalgams and finite extensions) check it against the
reference here, one word problem per box point, and check the group
operations against the word problem.  A counting test checks that it
solves no word problem and multiplies about (box+1)^ceil(deg/2) times.
compare lists the first 20 points of the symmetric difference in
lexicographic order, as the per-point scan it replaced did.
"""

import itertools
import random

import pytest

from knapsolve.errors import InputError
from knapsolve.expr import parse_expr
from knapsolve.finite_ext import FiniteExtBackend
from knapsolve.gp_solver import GraphProductBackend
from knapsolve.groups import (GroupBackend, IntegerGroup, build_backend,
                              cyclic_group)
from knapsolve.hnn import AmalgamBackend, HnnBackend
from knapsolve.oracle import brute_force_solutions, compare
from knapsolve.semilinear import LinearSet, SemilinearSet
from knapsolve.words import invert_word
from test_differential import S3_OVER_FLIP, Z_IN_Z


def _solutions_by_point(backend, e, box):
    """The reference: one word problem on the whole word e(v) per point v."""
    names = e.variables
    return {values
            for values in itertools.product(range(box + 1), repeat=len(names))
            if backend.word_problem(e.evaluate(dict(zip(names, values))))}


def test_brute_force_integer_example():
    backend = IntegerGroup("t")
    e = parse_expr("t^x t'^4")
    assert brute_force_solutions(backend, e, 6) == {(4,)}


def test_brute_force_cyclic():
    backend = cyclic_group(2, "a")
    e = parse_expr("a^x")
    assert brute_force_solutions(backend, e, 5) == {(0,), (2,), (4,)}


def test_brute_force_unsatisfiable():
    backend = cyclic_group(2, "a")
    assert brute_force_solutions(backend, parse_expr("a^x a"), 4) == {(1,), (3,)}
    assert brute_force_solutions(backend, parse_expr("(a a)^x a"), 4) == set()


def test_compare_passes_on_correct_set():
    backend = cyclic_group(3, "b")
    e = parse_expr("b^x")
    S = SemilinearSet(("x",), [LinearSet((0,), [(3,)])])
    report = compare(backend, e, S, 9)
    assert report["ok"]
    assert report["mismatches"] == []


def test_compare_reports_witness_both_directions():
    backend = cyclic_group(3, "b")
    e = parse_expr("b^x")
    # base perturbed: claims 1 instead of 0
    wrong = SemilinearSet(("x",), [LinearSet((1,), [(3,)])])
    report = compare(backend, e, wrong, 9)
    assert not report["ok"]
    points = {tuple(m["point"]) for m in report["mismatches"]}
    # misses a real solution and claims a non-solution
    assert (0,) in points and (1,) in points


def test_compare_empty_against_empty():
    backend = cyclic_group(2, "a")
    e = parse_expr("(a a)^x a")
    report = compare(backend, e, SemilinearSet.empty(("x",)), 6)
    assert report["ok"]


def _compare_by_membership(backend, e, sols, box):
    """compare as it was written first: one membership search per point."""
    names = e.variables
    expected = brute_force_solutions(backend, e, box)
    mismatches = []
    for values in itertools.product(range(box + 1), repeat=len(names)):
        want = values in expected
        got = sols.membership(values)
        if want != got:
            mismatches.append(
                {"point": list(values), "expected": want, "computed": got}
            )
            if len(mismatches) >= 20:
                break
    return {"ok": not mismatches, "box": box, "vars": list(names),
            "mismatches": mismatches}


def test_compare_report_of_a_wrong_set_keeps_its_order_and_cap():
    backend = cyclic_group(3, "b")
    wrong = SemilinearSet(("x",), [LinearSet((1,), [(3,)])])
    report = compare(backend, parse_expr("b^x"), wrong, 7)
    assert [(m["point"], m["expected"], m["computed"])
            for m in report["mismatches"]] == [
        ([0], True, False), ([1], False, True), ([3], True, False),
        ([4], False, True), ([6], True, False), ([7], False, True)]
    # two variables, more mismatches than the cap of 20
    e = parse_expr("(b)^x (b b)^y")
    wrong = SemilinearSet(("x", "y"), [LinearSet((0, 1), [(1, 0), (0, 2)]),
                                       LinearSet((2, 0), [(3, 3)])])
    report = compare(backend, e, wrong, 6)
    assert len(report["mismatches"]) == 20
    assert report == _compare_by_membership(backend, e, wrong, 6)


def _z(order, gen):
    return {"type": "CyclicGroup", "order": order, "generator": gen}


def _hnn(base, subgroup):
    return {"type": "Hnn", "base": base, "stable_letter": "t",
            "A": subgroup, "B": subgroup}


def _amalgam(left, right, phi1, phi2):
    return {"type": "Amalgam", "left": left, "right": right,
            "phi1": [phi1], "phi2": [phi2], "stable_letter": "t"}


#: Z over its subgroup 2Z = <s>, with cosets 1 and u, where u u = s':
#: the letter t is s u, not the coset representative u, and t' is u
Z_IN_Z_SHIFTED = {
    "type": "FiniteExt",
    "subgroup": {"type": "IntegerGroup", "generator": "s"},
    "cosets": ["1", "t"],
    "rules": [
        ["1", "s", ["s"], "1"], ["1", "s'", ["s'"], "1"],
        ["1", "t", ["s"], "t"], ["1", "t'", [], "t"],
        ["t", "s", ["s"], "t"], ["t", "s'", ["s'"], "t"],
        ["t", "t", [], "1"], ["t", "t'", ["s'"], "1"],
    ],
}

#: name -> (description, generator letters without inverses)
GROUPS = {
    "integers": ({"type": "IntegerGroup", "generator": "t"}, "t"),
    "cyclic-3": (_z(3, "b"), "b"),
    "path-p3": ({
        "type": "GraphProduct",
        "vertices": [_z(2, "a"), _z(2, "b"), _z(2, "c")],
        "edges": [[0, 1], [1, 2]],
    }, "abc"),
    "join-z-z3": ({
        "type": "GraphProduct",
        "vertices": [{"type": "IntegerGroup", "generator": "t"}, _z(3, "b")],
        "edges": [[0, 1]],
    }, "tb"),
    "free-z2-z3": ({
        "type": "FreeProduct", "children": [_z(2, "a"), _z(3, "b")],
    }, "ab"),
    "nested-free": ({
        "type": "FreeProduct", "children": [
            {"type": "FreeProduct", "children": [_z(2, "a"), _z(3, "b")]},
            _z(5, "c")],
    }, "abc"),
    "hnn-z2": (_hnn(_z(2, "a"), [[], ["a"]]), "at"),
    "hnn-z6-cube": (_hnn(_z(6, "a"), [[], ["a", "a", "a"]]), "at"),
    "hnn-z3-inversion": ({
        "type": "Hnn", "base": _z(3, "b"), "stable_letter": "t",
        "A": [[], ["b"], ["b", "b"]], "B": [[], ["b", "b"], ["b"]],
    }, "bt"),
    "amalgam-z4-z2-z4": (
        _amalgam(_z(4, "a"), _z(4, "b"), ["a", "a"], ["b", "b"]), "ab"),
    "amalgam-z4-z2-z6": (
        _amalgam(_z(4, "a"), _z(6, "b"), ["a", "a"], ["b", "b", "b"]), "ab"),
    "z-in-z-index-2": (Z_IN_Z, "st"),
    "z-in-z-shifted-letter": (Z_IN_Z_SHIFTED, "st"),
    "s3-over-flip": (S3_OVER_FLIP, "fqr"),
}

#: expressions with a variable on both sides of the split at deg // 2
SHARED = {
    "integers": ["(t)^x (t t)^y t' (t')^x", "(t)^x t (t')^y (t)^z (t')^x t'"],
    "cyclic-3": ["(b)^x (b)^y (b)^x", "(b)^x b (b b)^y (b)^y (b)^x"],
    "path-p3": ["(a)^x (b)^y (a)^x", "(a b)^x c (c)^y (b' a)^y (c)^x"],
    "join-z-z3": ["(t)^x (b)^y (t')^x b'", "(t b)^x (b)^y t' (b')^x (t)^z"],
    "free-z2-z3": ["(a)^x (b)^y (a)^x", "(a b)^x (b' a)^y (a)^y (a b')^x"],
    "nested-free": ["(a c)^x (b)^y (c' a)^x", "(a)^x (c)^y c' (c)^y (a b)^x"],
    "hnn-z2": ["(t)^x (a)^y (t')^x", "(a t)^x a (t' a)^y (a)^y (t)^x t'"],
    "hnn-z6-cube": ["(t)^x (a a a)^y (t')^x",
                    "(t a)^x (a a)^y a (t')^y (a' t')^x"],
    "hnn-z3-inversion": ["(t)^x (b)^y (t')^x",
                         "(b t)^x (t)^y b (t)^y (t' b')^x"],
    "amalgam-z4-z2-z4": ["(a)^x (b)^y (a')^x",
                         "(a b)^x (b b)^y a (a)^y (b' a')^x"],
    "amalgam-z4-z2-z6": ["(a)^x (b)^y (a')^x", "(a)^x (b b)^y (a a)^z (a')^x",
                         "(a b)^x (a a)^y b (b b b)^y b' (b' a')^x"],
    "z-in-z-index-2": ["(t)^x (s)^y (t')^x",
                       "(t s)^x (t)^y s' (t')^y (s' t')^x"],
    "z-in-z-shifted-letter": ["(t)^x (t')^y", "(t)^x (s)^y (t')^x",
                              "(t s)^x (t)^y s' (t')^y (s' t')^x"],
    "s3-over-flip": ["(r)^x (f)^y (r)^x", "(r f)^x (q)^y f (r)^y (f r')^x"],
}


def _letters(gens):
    return [x for a in gens for x in (a, a + "'")]


def _draw(rng, letters, degree):
    """degree powers over x, y, z (so variables repeat), tails of 0-2."""
    parts = []
    for _ in range(degree):
        period = [rng.choice(letters) for _ in range(rng.randrange(1, 3))]
        parts.append("(" + " ".join(period) + ")^" + rng.choice("xyz"))
        parts.extend(rng.choice(letters) for _ in range(rng.randrange(0, 3)))
    return " ".join(parts)


def _splits_a_variable(e):
    cut = len(e.factors) // 2
    left = {var for _p, var, _t in e.factors[:cut]}
    return bool(left & {var for _p, var, _t in e.factors[cut:]})


def _expressions(name):
    """SHARED[name] and two seeded draws of each degree 1-4."""
    rng = random.Random(f"oracle-{name}")
    letters = _letters(GROUPS[name][1])
    texts = list(SHARED[name])
    texts += [_draw(rng, letters, degree)
              for degree in (1, 2, 3, 4) for _ in range(2)]
    exprs = [parse_expr(text) for text in texts]
    assert any(_splits_a_variable(e) for e in exprs)
    return exprs


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_element_path_agrees_with_the_per_point_path(name):
    backend = build_backend(GROUPS[name][0])
    solved = 0
    for e in _expressions(name):
        for box in (0, 1, 6):
            want = _solutions_by_point(backend, e, box)
            assert brute_force_solutions(backend, e, box) == want, (e, box)
            solved += bool(want)
    # the comparison is not only between empty sets
    assert solved >= 8


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_operations_agree_with_the_word_problem(name):
    desc, gens = GROUPS[name]
    backend = build_backend(desc)
    letters = _letters(gens)
    rng = random.Random(f"elements-{name}")
    equal = 0
    for _ in range(150):
        u, v = (tuple(rng.choice(letters) for _ in range(rng.randrange(0, 7)))
                for _ in range(2))
        x, y = backend.elem_from_word(u), backend.elem_from_word(v)
        assert (x == y) == backend.word_problem(u + invert_word(v)), (u, v)
        assert backend.elem_mul(x, y) == backend.elem_from_word(u + v)
        assert backend.elem_inv(x) == backend.elem_from_word(invert_word(u))
        assert backend.elem_from_word(backend.elem_word(x)) == x
        equal += x == y
    # equal elements from different words do occur
    assert equal >= 5


def test_a_shared_variable_keeps_one_value():
    # t^x t^-y t^-x = 1 iff y = 0; a left x = 1 and a right x = 0 would
    # also make (1, 1) a solution
    e = parse_expr("(t)^x (t')^y (t')^x")
    assert _splits_a_variable(e)
    assert brute_force_solutions(IntegerGroup("t"), e, 3) == {
        (x, 0) for x in range(4)}
    backend = build_backend(GROUPS["free-z2-z3"][0])
    e = parse_expr("(a)^x (b)^y (a)^x")
    assert _splits_a_variable(e)
    # a^x b^y a^x = 1 iff y = 0 mod 3, whatever x
    assert brute_force_solutions(backend, e, 3) == {
        (x, y) for x in range(4) for y in (0, 3)}
    e = parse_expr("(a)^x (b)^y (a)^x (a)^z")
    assert brute_force_solutions(backend, e, 2) == {
        (x, y, z) for x in range(3) for y in (0,) for z in (0, 2)}


@pytest.mark.parametrize("oracle", [_solutions_by_point, brute_force_solutions])
def test_a_letter_outside_the_alphabet_is_an_input_error(oracle):
    backend = build_backend(GROUPS["path-p3"][0])
    with pytest.raises(InputError):
        oracle(backend, parse_expr("(a)^x d (b)^y"), 1)
    with pytest.raises(InputError):
        oracle(backend, parse_expr("(a d)^x"), 1)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_brute_force_meets_in_the_middle(name, monkeypatch):
    backend = build_backend(GROUPS[name][0])
    box = 6
    cases = [(e, _solutions_by_point(backend, e, box))
             for e in _expressions(name)]
    calls = {"elem_mul": 0}

    def no_word_problem(self, word):
        raise AssertionError("brute force solved a word problem")

    def counting_mul(a, b, mul=backend.elem_mul):
        calls["elem_mul"] += 1
        return mul(a, b)

    for cls in (GroupBackend, GraphProductBackend, HnnBackend, AmalgamBackend,
                FiniteExtBackend):
        monkeypatch.setattr(cls, "word_problem", no_word_problem)
    backend.elem_mul = counting_mul
    for e, want in cases:
        calls["elem_mul"] = 0
        assert brute_force_solutions(backend, e, box) == want
        half = -(-len(e.factors) // 2)
        assert calls["elem_mul"] <= 4 * (box + 1) ** half
