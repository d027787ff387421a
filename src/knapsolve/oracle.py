"""Brute-force ground truth for exponent equations.

Used by the test suite to validate solver output on boxes [0, N]^deg.
"""

import itertools


def brute_force_solutions(backend, e, box):
    """All valuations v in [0, box]^deg with e(v) = 1 in the group."""
    names = e.variables
    out = set()
    for values in itertools.product(range(box + 1), repeat=len(names)):
        word = e.evaluate(dict(zip(names, values)))
        if backend.word_problem(word):
            out.add(values)
    return out


def compare(backend, e, sols, box):
    """Check a solution set against brute force on [0, box]^deg.

    Returns a report dict; report["ok"] is True when there is no
    mismatch, otherwise report["mismatches"] lists up to 20 witnesses
    with the expected and computed verdicts.
    """
    names = e.variables
    if tuple(sols.vars) != names:
        sols = sols._aligned_to(names)
    expected = brute_force_solutions(backend, e, box)
    computed = sols.points_in_box(box)
    mismatches = []
    for values in itertools.product(range(box + 1), repeat=len(names)):
        want = values in expected
        got = values in computed
        if want != got:
            mismatches.append(
                {"point": list(values), "expected": want, "computed": got}
            )
            if len(mismatches) >= 20:
                break
    return {
        "ok": not mismatches,
        "box": box,
        "vars": list(names),
        "mismatches": mismatches,
    }
