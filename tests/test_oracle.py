"""Brute-force oracle: enumeration and mismatch reporting.

brute_force_solutions meets in the middle on backends with the element
protocol and checks point by point on the others.  Seeded draws over
element backends (Z, a cyclic group, path-P3, a join, a free product
and a nested free product) check that both paths return the same set,
and a counting test checks that graph products take the element path,
with no word problem and about (box+1)^ceil(deg/2) products.  compare
lists the first 20 points of the symmetric difference in lexicographic
order, as the per-point scan it replaced did.
"""

import itertools
import random

import pytest

from knapsolve.errors import InputError
from knapsolve.expr import parse_expr
from knapsolve.groups import IntegerGroup, build_backend, cyclic_group
from knapsolve.oracle import (_solutions_by_elements, _solutions_by_point,
                              brute_force_solutions, compare)
from knapsolve.semilinear import LinearSet, SemilinearSet


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


#: name -> (description, generator letters without inverses)
ELEMENT_GROUPS = {
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
}

#: expressions with a variable on both sides of the split at deg // 2
SHARED = {
    "integers": ["(t)^x (t t)^y t' (t')^x", "(t)^x t (t')^y (t)^z (t')^x t'"],
    "cyclic-3": ["(b)^x (b)^y (b)^x", "(b)^x b (b b)^y (b)^y (b)^x"],
    "path-p3": ["(a)^x (b)^y (a)^x", "(a b)^x c (c)^y (b' a)^y (c)^x"],
    "join-z-z3": ["(t)^x (b)^y (t')^x b'", "(t b)^x (b)^y t' (b')^x (t)^z"],
    "free-z2-z3": ["(a)^x (b)^y (a)^x", "(a b)^x (b' a)^y (a)^y (a b')^x"],
    "nested-free": ["(a c)^x (b)^y (c' a)^x", "(a)^x (c)^y c' (c)^y (a b)^x"],
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


@pytest.mark.parametrize("name", sorted(ELEMENT_GROUPS))
def test_element_path_agrees_with_the_per_point_path(name):
    desc, gens = ELEMENT_GROUPS[name]
    backend = build_backend(desc)
    rng = random.Random(f"oracle-{name}")
    texts = list(SHARED[name])
    texts += [_draw(rng, _letters(gens), degree)
              for degree in (1, 2, 3, 4) for _ in range(2)]
    exprs = [parse_expr(text) for text in texts]
    assert any(_splits_a_variable(e) for e in exprs)
    solved = 0
    for e in exprs:
        for box in (0, 1, 6):
            want = _solutions_by_point(backend, e, box)
            assert _solutions_by_elements(backend, e, box) == want, (e, box)
            assert brute_force_solutions(backend, e, box) == want
            solved += bool(want)
    # the comparison is not only between empty sets
    assert solved >= 8


def test_a_shared_variable_keeps_one_value():
    # t^x t^-y t^-x = 1 iff y = 0; a left x = 1 and a right x = 0 would
    # also make (1, 1) a solution
    e = parse_expr("(t)^x (t')^y (t')^x")
    assert _splits_a_variable(e)
    assert brute_force_solutions(IntegerGroup("t"), e, 3) == {
        (x, 0) for x in range(4)}
    backend = build_backend(ELEMENT_GROUPS["free-z2-z3"][0])
    e = parse_expr("(a)^x (b)^y (a)^x")
    assert _splits_a_variable(e)
    # a^x b^y a^x = 1 iff y = 0 mod 3, whatever x
    assert brute_force_solutions(backend, e, 3) == {
        (x, y) for x in range(4) for y in (0, 3)}
    e = parse_expr("(a)^x (b)^y (a)^x (a)^z")
    assert brute_force_solutions(backend, e, 2) == {
        (x, y, z) for x in range(3) for y in (0,) for z in (0, 2)}


@pytest.mark.parametrize("oracle", [_solutions_by_point, _solutions_by_elements])
def test_a_letter_outside_the_alphabet_is_an_input_error(oracle):
    backend = build_backend(ELEMENT_GROUPS["path-p3"][0])
    with pytest.raises(InputError):
        oracle(backend, parse_expr("(a)^x d (b)^y"), 1)
    with pytest.raises(InputError):
        oracle(backend, parse_expr("(a d)^x"), 1)


def test_graph_products_meet_in_the_middle():
    backend = build_backend(ELEMENT_GROUPS["path-p3"][0])
    box = 6
    cases = [parse_expr("(a b)^x c (b)^y (c a)^z"),
             parse_expr("(a)^w (b c)^x a (c)^y b (a b)^z c")]
    wants = [_solutions_by_point(backend, e, box) for e in cases]
    calls = {"elem_mul": 0}

    def no_word_problem(word):
        raise AssertionError("the element path solved a word problem")

    def counting_mul(a, b, mul=backend.elem_mul):
        calls["elem_mul"] += 1
        return mul(a, b)

    backend.word_problem = no_word_problem
    backend.elem_mul = counting_mul
    for e, want in zip(cases, wants):
        calls["elem_mul"] = 0
        assert brute_force_solutions(backend, e, box) == want
        half = -(-len(e.factors) // 2)
        assert calls["elem_mul"] <= 4 * (box + 1) ** half
