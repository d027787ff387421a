"""Brute-force oracle: enumeration and mismatch reporting."""

import itertools

from knapsolve.expr import parse_expr
from knapsolve.groups import IntegerGroup, cyclic_group
from knapsolve.oracle import brute_force_solutions, compare
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
