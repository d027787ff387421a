"""Brute-force ground truth for exponent equations.

The solution set of e = 1 on a box [0, N]^deg, and reports that compare
a computed set with it.  This is `knapsolve verify`, the benchmark's
oracle gate and the test suite's ground truth.

Brute force meets in the middle on every backend, through the group
operations of the element protocol: the products of the left half of
the factors, inverted, are looked up among those of the right half, in
about 2 (N+1)^ceil(deg/2) group operations and as many stored
elements.  It solves no word problem.
"""


def brute_force_solutions(backend, e, box):
    """All valuations v in [0, box]^deg with e(v) = 1 in the group.

    They meet in the middle, as a left product L and a right product R
    with L R = 1.  The right products are indexed by element and by the
    values of the variables that occur on both sides, so a hit agrees
    on those.
    """
    factors = e.factors
    cut = len(factors) // 2
    left_names, left = _products(backend, factors[:cut], box)
    right_names, right = _products(backend, factors[cut:], box)
    shared = [v for v in left_names if v in right_names]
    left_shared = [left_names.index(v) for v in shared]
    right_shared = [right_names.index(v) for v in shared]
    index = {}
    for values, prod in right:
        key = (prod, tuple(values[i] for i in right_shared))
        index.setdefault(key, []).append(values)
    out = set()
    for values, prod in left:
        key = (backend.elem_inv(prod), tuple(values[i] for i in left_shared))
        for match in index.get(key, ()):
            point = dict(zip(left_names, values))
            point.update(zip(right_names, match))
            out.add(tuple(point[v] for v in e.variables))
    return out


def _products(backend, factors, box):
    """The factors' variables, and (values, product) for every valuation.

    Built factor by factor, like an odometer: each row of the next
    level costs one elem_mul by the precomputed period^v tail, and the
    first factor's rows are those powers themselves.
    """
    mul = backend.elem_mul
    names = ()
    rows = [((), backend.identity_elem)]
    for period, var, tail in factors:
        p = backend.elem_from_word(period)
        steps = [backend.identity_elem]
        for _ in range(box):
            steps.append(mul(steps[-1], p))
        if tail:
            t = backend.elem_from_word(tail)
            steps = [mul(step, t) for step in steps]
        if var in names:
            k = names.index(var)
            rows = [(values, mul(prod, steps[values[k]]))
                    for values, prod in rows]
        else:
            names += (var,)
            rows = [(values + (v,), mul(prod, step) if values else step)
                    for values, prod in rows
                    for v, step in enumerate(steps)]
    return names, rows


def compare(backend, e, sols, box):
    """Check a solution set against brute force on [0, box]^deg.

    Returns a report dict; report["ok"] is True when there is no
    mismatch, otherwise report["mismatches"] lists the first 20
    witnesses in lexicographic order, with the expected and computed
    verdicts.
    """
    names = e.variables
    if tuple(sols.vars) != names:
        sols = sols._aligned_to(names)
    expected = brute_force_solutions(backend, e, box)
    computed = sols.points_in_box(box)
    mismatches = [
        {"point": list(values), "expected": values in expected,
         "computed": values in computed}
        for values in sorted(expected ^ computed)[:20]
    ]
    return {
        "ok": not mismatches,
        "box": box,
        "vars": list(names),
        "mismatches": mismatches,
    }
