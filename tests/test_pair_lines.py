"""Every line a scheme's pair_lines returns solves its pair equation.

Scheme.pair_components combines the lines of matched factor pairs
without looking at them, and an answer rarely shows a bad line: a line
put on the wrong power, or one that the exponent floor should have
dropped, mostly repeats points that other outcomes give.  So these tests
record the hook's calls during real solves and check each returned line
(a + b z, c + d z) at z = 0, 1, 2 against the pair's equation, its
floor x, y >= 1 where the factor needs a copy of its period, and a zero
exponent on a concrete factor, whose value the driver adds to its power.

The shared routine stops at the first pair record without lines, so
what it asks depends on the order of an outcome's pair records (the
order the search first met them, which the input fixes; CI runs the
file under eight hash seeds to guard that).  The recorder asks the hook
for every pair record under every choice of open forms of its two
powers itself, once per pair of forms; what the tests see does not
depend on that order.
"""

import itertools

from knapsolve import gp_solver
from knapsolve.expr import parse_expr
from knapsolve.gp_solver import two_dim_trace_solve
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.hnn import hnn_equal, two_dim_hnn_solve
from knapsolve.reduction import Scheme
from knapsolve.words import invert_word

Z = {"type": "IntegerGroup", "generator": "t"}
Z2 = {"type": "CyclicGroup", "order": 2, "generator": "a"}
Z3 = {"type": "CyclicGroup", "order": 3, "generator": "b"}
Z4 = {"type": "CyclicGroup", "order": 4, "generator": "a"}

GP_CASES = [
    ({"type": "FreeProduct", "children": [Z, Z2]},
     "(a' t)^x (t')^y a' a (a t')^z"),
    ({"type": "FreeProduct", "children": [Z2, Z3]}, "(a' b')^x (b b a)^y"),
]


def _hnn(base, subgroup):
    return {"type": "Hnn", "base": base, "stable_letter": "t",
            "A": subgroup, "B": subgroup}


HNN_CASES = [
    (_hnn(Z4, [[], ["a", "a"]]), "(a' a' t')^x t (t a a)^y"),
    (_hnn(Z4, [[]]), "(t' a t')^x t' (t a' t')^y (t)^z"),
    (_hnn(Z2, [[], ["a"]]), "(a a' t')^x (t a)^y t'"),
    (_hnn(Z2, [[], ["a"]]), "(t')^x (t t)^y a' a"),
    (_hnn(Z2, [[], ["a"]]), "(t)^x t' t (t' t' t)^y"),
]


def _record(monkeypatch, cases):
    """(scheme, powers, pair, form_l, form_r, lines) for every pair record
    that Scheme.pair_components is given, under every choice of open
    forms of its two powers, once per pair of forms."""
    calls = []
    shared = Scheme.pair_components

    def recording(self, wb, order, comp_pairs, reduced):
        for pair in comp_pairs:
            fid_l, i_l, _a, fid_r, i_r, _b = pair
            if i_l == i_r:
                # both factors take their forms from one choice
                choices = [(dict(of)[fid_l], dict(of)[fid_r])
                           for of, _cs in reduced[i_l]]
            else:
                choices = itertools.product(
                    [dict(of)[fid_l] for of, _cs in reduced[i_l]],
                    [dict(of)[fid_r] for of, _cs in reduced[i_r]])
            for form_l, form_r in dict.fromkeys(choices):
                lines = self.pair_lines(wb, pair, form_l, form_r)
                calls.append((self, wb, pair, form_l, form_r, lines))
        return shared(self, wb, order, comp_pairs, reduced)

    monkeypatch.setattr(Scheme, "pair_components", recording)
    for desc, text in cases:
        solve_exponent(build_backend(desc), parse_expr(text))
    return calls


def _points(line):
    a, b, c, d = line
    return [(a + b * z, c + d * z) for z in range(3)]


def _gp_value(form, u, k):
    return form[1] if form[0] == "concrete" else form[1] * u.pow(k) * form[2]


def test_graph_product_pair_lines(monkeypatch):
    # the component cache would skip the hook on pairs seen before
    monkeypatch.setattr(gp_solver, "_COMPONENT_CACHE", {})
    calls = _record(monkeypatch, GP_CASES)
    answered = set()
    floor_used = False
    for scheme, wb, pair, form_l, form_r, lines in calls:
        u_l, u_r = wb[pair[1]], wb[pair[4]]
        kind = (form_l[0], form_r[0])
        if lines:
            answered.add(kind)
        for line in lines:
            for x, y in _points(line):
                assert scheme.mul(_gp_value(form_l, u_l, x),
                                  _gp_value(form_r, u_r, y)).is_identity(), line
            if form_l[0] == "concrete":
                assert line[:2] == (0, 0), line
            if form_r[0] == "concrete":
                assert line[2:] == (0, 0), line
            if kind == ("power", "power"):
                assert line[0] >= 1 and line[2] >= 1, line
        if kind == ("power", "power"):
            raw = two_dim_trace_solve(form_l[1], u_l, form_l[2],
                                      form_r[2].inv(), u_r.inv(),
                                      form_r[1].inv())
            floor_used |= any(ln[0] < 1 or ln[2] < 1 for ln in raw)
    assert answered == {("concrete", "concrete"), ("concrete", "power"),
                        ("power", "concrete"), ("power", "power")}
    assert floor_used, "no case gave a line below the floor"


def test_hnn_pair_lines(monkeypatch):
    calls = _record(monkeypatch, HNN_CASES)
    answered = set()
    floor_used = False
    for scheme, wb, pair, form_l, form_r, lines in calls:
        backend = scheme.backend
        _fl, i_l, a, _fr, i_r, b = pair
        (sfx_l, pfx_l), (sfx_r, pfx_r) = form_l, form_r
        need_x = sfx_l.tcount + pfx_l.tcount == 0
        need_y = sfx_r.tcount + pfx_r.tcount == 0
        if lines:
            answered.add((need_x, need_y))
        for line in lines:
            for x, y in _points(line):
                left = backend.concat(
                    backend.concat(sfx_l, backend.bw_pow(wb[i_l], x)), pfx_l)
                right = backend.concat(
                    backend.concat(sfx_r, backend.bw_pow(wb[i_r], y)), pfx_r)
                lhs = backend.concat(
                    backend.concat(left, backend.base_bw(a)), right)
                assert hnn_equal(backend, lhs, backend.base_bw(b)), line
                assert x >= 1 or not need_x, line
                assert y >= 1 or not need_y, line
        if need_x and need_y:
            raw = two_dim_hnn_solve(
                backend, invert_word(a), backend.bw_inv(pfx_l),
                backend.bw_inv(wb[i_l]), backend.bw_inv(sfx_l),
                sfx_r, wb[i_r], pfx_r, invert_word(b),
            )
            floor_used |= any(ln[0] < 1 or ln[2] < 1 for ln in raw)
    assert answered == {(False, False), (False, True), (True, False),
                        (True, True)}
    assert floor_used, "no case gave a line below the floor"
