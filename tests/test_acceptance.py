"""Acceptance suite: one test per criterion, pinned sizes and tolerances.

Criteria (all exact, no numeric tolerances anywhere):
  1. oracle equivalence on >= 60 instances across all constructors,
     deg <= 2, expression length <= 8, box [0,12]^deg, zero mismatches;
  2. size bounds asserted on every power-presentation invocation, zero
     violations on 100 random inputs per construction;
  3. trace layer: normal-form confluence over 500 random strategies,
     the square criterion for powers (m <= 8, 200 samples), and the
     prefix count of free words (100 samples);
  4. automata layer: unary length sets vs naive acceptance (100 NFAs,
     lengths <= 300), the word pipeline vs brute force on [0,15]^2
     (50 instances), the HNN two-dimensional solver vs brute force on
     [0,10]^2 (30 instances);
  5. semilinear operations vs set-theoretic definitions on [0,20]^d,
     d <= 3, 200 random pairs;
  6. finite extensions vs oracle on the three corpus extensions plus
     the affine-substitution round trip against raw subgroup output.
"""

import itertools
import random

from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.finite_ext import FiniteExtBackend
from knapsolve.groups import IntegerGroup, build_backend, solve_exponent
from knapsolve.hnn import (
    HnnBackend,
    britton_reduce,
    hnn_equal,
    hnn_power_presentation,
    two_dim_hnn_solve,
)
from knapsolve.oracle import compare
from knapsolve.semilinear import DiophSolver, LinearSet, SemilinearSet
from knapsolve.trace import TraceMonoid, has_redex, nf_R, power_presentation
from knapsolve.unary_automata import (
    TICK,
    Nfa,
    unary_length_set,
    word_pair_power_solutions,
)
from test_trace import reference_nf_R


Z_IN_Z_DESC = {
    "type": "FiniteExt",
    "subgroup": {"type": "IntegerGroup", "generator": "s"},
    "cosets": ["1", "t"],
    "rules": [
        {"c": "1", "a": "s", "w": ["s"], "d": "1"},
        {"c": "1", "a": "s'", "w": ["s'"], "d": "1"},
        {"c": "1", "a": "t", "w": [], "d": "t"},
        {"c": "1", "a": "t'", "w": ["s'"], "d": "t"},
        {"c": "t", "a": "s", "w": ["s"], "d": "t"},
        {"c": "t", "a": "s'", "w": ["s'"], "d": "t"},
        {"c": "t", "a": "t", "w": ["s"], "d": "1"},
        {"c": "t", "a": "t'", "w": [], "d": "1"},
    ],
}

CORPUS = [
    ("integers", {"type": "IntegerGroup", "generator": "t"}),
    ("cyclic-2", {"type": "CyclicGroup", "order": 2, "generator": "a"}),
    ("cyclic-3", {"type": "CyclicGroup", "order": 3, "generator": "b"}),
    ("direct-z2-z2", {
        "type": "GraphProduct",
        "vertices": [
            {"type": "CyclicGroup", "order": 2, "generator": "a"},
            {"type": "CyclicGroup", "order": 2, "generator": "b"},
        ],
        "edges": [[0, 1]],
    }),
    ("free-z2-z3", {
        "type": "FreeProduct",
        "children": [
            {"type": "CyclicGroup", "order": 2, "generator": "a"},
            {"type": "CyclicGroup", "order": 3, "generator": "b"},
        ],
    }),
    ("path-p3", {
        "type": "GraphProduct",
        "vertices": [
            {"type": "CyclicGroup", "order": 2, "generator": "a"},
            {"type": "CyclicGroup", "order": 2, "generator": "b"},
            {"type": "CyclicGroup", "order": 2, "generator": "c"},
        ],
        "edges": [[0, 1], [1, 2]],
    }),
    ("hnn-z2", {
        "type": "Hnn",
        "base": {"type": "CyclicGroup", "order": 2, "generator": "a"},
        "stable_letter": "t",
        "A": [[], ["a"]],
        "B": [[], ["a"]],
    }),
    ("amalgam-z4-z2-z4", {
        "type": "Amalgam",
        "left": {"type": "CyclicGroup", "order": 4, "generator": "a"},
        "right": {"type": "CyclicGroup", "order": 4, "generator": "b"},
        "phi1": [["a", "a"]],
        "phi2": [["b", "b"]],
        "stable_letter": "t",
    }),
    ("z-in-z-index-2", Z_IN_Z_DESC),
]


def random_expression(rng, letters, deg):
    names = ("x", "y")[:deg]
    while True:
        factors = []
        for k in range(deg):
            p = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 4)))
            t = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 3)))
            factors.append((p, names[k], t))
        e = ExponentExpression(tuple(factors))
        if e.length() <= 8:
            return e


def test_criterion_1_oracle_equivalence_all_constructors():
    rng = random.Random(2026)
    instances = 0
    for name, desc in CORPUS:
        backend = build_backend(desc)
        letters = sorted(backend.alphabet)
        for trial in range(7):
            deg = 1 + trial % 2
            e = random_expression(rng, letters, deg)
            S = solve_exponent(backend, e)
            report = compare(backend, e, S, 12)
            assert report["ok"], (name, e.factors, report["mismatches"][:5])
            instances += 1
    assert instances >= 60


def test_criterion_2_size_bounds_asserted_every_call():
    # power_presentation (traces) and hnn_power_presentation assert
    # |s|+|t|+sum|v_i| <= 3|u|, k <= alpha and |s|+|p|+|v| <= 3|u| on
    # every invocation; refinement searches refuse splits beyond
    # (3a+4)m^2 / max(m,7m-12) pieces and creations beyond m-2 per type
    # / 4m-8 by construction.  Zero violations over random inputs:
    rng = random.Random(2027)
    from knapsolve.groups import cyclic_group

    monoids = [
        TraceMonoid([cyclic_group(2, "a"), cyclic_group(3, "b")], []),
        TraceMonoid(
            [cyclic_group(2, "a"), cyclic_group(2, "b"), cyclic_group(2, "c")],
            [(0, 1), (1, 2)],
        ),
    ]
    for _ in range(100):
        monoid = rng.choice(monoids)
        letters = sorted(monoid.alphabet)
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 9)))
        power_presentation(monoid.trace_from_word(word))

    hnn_backends = [
        HnnBackend(cyclic_group(2, "a"), "t", [(), ("a",)], [(), ("a",)]),
        HnnBackend(
            cyclic_group(4, "a"), "t", [(), ("a", "a")], [(), ("a", "a")]
        ),
    ]
    for _ in range(100):
        backend = rng.choice(hnn_backends)
        letters = sorted(backend.alphabet)
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 9)))
        hnn_power_presentation(backend, word)


def test_criterion_3_trace_layer_properties():
    rng = random.Random(2028)
    from knapsolve.groups import cyclic_group

    monoid = TraceMonoid(
        [cyclic_group(2, "a"), cyclic_group(2, "b"), cyclic_group(3, "c")],
        [(0, 2), (1, 2)],
    )
    letters = sorted(monoid.alphabet)

    # confluence: 500 randomized reduction strategies of the reference
    # rewriting match the one-pass normal form, which is idempotent
    strategies = 0
    while strategies < 500:
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 8)))
        t = monoid.trace_from_word(word)
        fixed = nf_R(t)
        assert nf_R(fixed) == fixed
        for _ in range(5):
            assert reference_nf_R(t, rng=rng) == fixed
            strategies += 1

    # square criterion: u and u^2 irreducible force u^m irreducible
    checked = 0
    while checked < 200:
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 6)))
        u = monoid.trace_from_word(word)
        if has_redex(u) or has_redex(u.pow(2)):
            continue
        checked += 1
        for m in range(3, 9):
            assert not has_redex(u.pow(m)), (word, m)

    # with no commutation the downsets of a word are its prefixes
    free_monoid = TraceMonoid(
        [cyclic_group(2, "a"), cyclic_group(3, "b")], []
    )
    free_letters = sorted(free_monoid.alphabet)
    for _ in range(100):
        word = tuple(
            rng.choice(free_letters) for _ in range(rng.randrange(0, 9))
        )
        t = free_monoid.trace_from_word(word)
        assert len(t.downsets()) == len(word) + 1


def _naive_accepted_lengths(nfa, up_to):
    subset = nfa.eps_closure(nfa.initials)
    accepted = set()
    for length in range(up_to + 1):
        if subset & nfa.finals:
            accepted.add(length)
        subset = nfa.eps_closure(nfa.step(subset, TICK))
    return accepted


def test_criterion_4_automata_layer():
    rng = random.Random(2029)

    # unary length sets vs naive acceptance
    for _ in range(100):
        n = rng.randrange(1, 13)
        states = list(range(n))
        transitions = []
        for _ in range(rng.randrange(1, 3 * n + 1)):
            label = TICK if rng.random() < 0.8 else None
            transitions.append((
                rng.choice(states), label, rng.choice(states)
            ))
        initials = rng.sample(states, rng.randrange(1, n + 1))
        finals = rng.sample(states, rng.randrange(0, n + 1))
        nfa = Nfa(states, transitions, initials, finals)
        progs = unary_length_set(nfa)
        naive = _naive_accepted_lengths(nfa, 300)
        got = {length for length in range(301) if any(
            length == b if c == 0 else length >= b and (length - b) % c == 0
            for b, c in progs)}
        assert got == naive

    # word pipeline vs brute force on [0,15]^2
    alphabet = ["a", "b"]
    done = 0
    while done < 50:
        def rw(lo, hi):
            return tuple(
                rng.choice(alphabet) for _ in range(rng.randrange(lo, hi))
            )

        p, u, s = rw(0, 3), rw(1, 4), rw(0, 3)
        q, v, t = rw(0, 3), rw(1, 4), rw(0, 3)
        done += 1
        lines = word_pair_power_solutions(p, u, s, q, v, t)
        expected = {
            (x, y)
            for x in range(16)
            for y in range(16)
            if p + u * x + s == q + v * y + t
        }
        got = set()
        for a, b, c, d in lines:
            for z in range(40):
                pt = (a + b * z, c + d * z)
                if pt[0] <= 15 and pt[1] <= 15:
                    got.add(pt)
                if b == 0 and d == 0:
                    break
        assert got == expected

    # HNN two-dimensional solver vs brute force on [0,10]^2
    from knapsolve.groups import cyclic_group

    backends = [
        HnnBackend(cyclic_group(2, "a"), "t", [(), ("a",)], [(), ("a",)]),
        HnnBackend(
            cyclic_group(3, "b"), "t",
            [(), ("b",), ("b", "b")], [(), ("b", "b"), ("b",)],
        ),
    ]
    done = 0
    while done < 30:
        backend = rng.choice(backends)
        letters = sorted(backend.alphabet)
        sides = []
        for _ in range(2):
            word = tuple(
                rng.choice(letters) for _ in range(rng.randrange(1, 6))
            )
            _s, core, _p = hnn_power_presentation(backend, word)
            if not core.tcount:
                break
            cletters = core.letters(backend.stable)
            sfx_at = rng.randrange(len(cletters))
            pfx_at = rng.randrange(len(cletters))
            sfx = (backend.identity_bw() if sfx_at == 0
                   else backend.parse(cletters[sfx_at:]))
            pfx = (backend.identity_bw() if pfx_at == 0
                   else backend.parse(cletters[:pfx_at]))
            if rng.random() < 0.5:
                sides.append((sfx, core, pfx))
            else:
                sides.append((
                    backend.bw_inv(pfx),
                    backend.bw_inv(core),
                    backend.bw_inv(sfx),
                ))
        if len(sides) < 2:
            continue
        done += 1
        ab = sorted(backend.ab)
        bound_a, bound_b = rng.choice(ab), rng.choice(ab)
        (u1, u, u2), (v1, v, v2) = sides
        lines = two_dim_hnn_solve(
            backend, bound_a, u1, u, u2, v1, v, v2, bound_b
        )
        expected = set()
        for x in range(11):
            for y in range(11):
                lhs = backend.concat(
                    backend.base_bw(bound_a),
                    backend.concat(
                        backend.concat(u1, backend.bw_pow(u, x)), u2
                    ),
                )
                rhs = backend.concat(
                    backend.concat(
                        backend.concat(v1, backend.bw_pow(v, y)), v2
                    ),
                    backend.base_bw(bound_b),
                )
                if hnn_equal(backend, lhs, rhs):
                    expected.add((x, y))
        got = set()
        for a, b, c, d in lines:
            for z in range(25):
                pt = (a + b * z, c + d * z)
                if pt[0] <= 10 and pt[1] <= 10:
                    got.add(pt)
                if b == 0 and d == 0:
                    break
        assert got == expected


def _random_semilinear(rng, names):
    comps = []
    for _ in range(rng.randrange(1, 4)):
        d = len(names)
        base = tuple(rng.randrange(0, 7) for _ in range(d))
        periods = [
            tuple(rng.randrange(0, 4) for _ in range(d))
            for _ in range(rng.randrange(0, 3))
        ]
        periods = [p for p in periods if any(p)]
        comps.append(LinearSet(base, periods))
    return SemilinearSet(tuple(names), comps)


def test_criterion_5_semilinear_operations():
    rng = random.Random(2030)
    box = 20
    for pair in range(200):
        d = rng.randrange(1, 4)
        names = ("x", "y", "z")[:d]
        A = _random_semilinear(rng, names)
        B = _random_semilinear(rng, names)
        pts_a = A.points_in_box(box)
        pts_b = B.points_in_box(box)
        assert A.union(B).points_in_box(box) == pts_a | pts_b
        inter = A.intersect(B, DiophSolver(500_000))
        assert inter.points_in_box(box) == pts_a & pts_b

        if d >= 2:
            keep = names[: rng.randrange(1, d)]
            idx = [names.index(v) for v in keep]
            expected = set()
            for comp in A.components:
                ranges = [range(box + 1)] * len(comp.periods)
                for zs in itertools.product(*ranges):
                    point = list(comp.base)
                    for z, p in zip(zs, comp.periods):
                        for i in range(d):
                            point[i] += z * p[i]
                    proj = tuple(point[i] for i in idx)
                    if all(v <= box for v in proj):
                        expected.add(proj)
            assert A.restrict(keep).points_in_box(box) == expected

        if d == 1:
            other = _random_semilinear(rng, ("w",))
            ds = A.direct_sum(other)
            assert ds.points_in_box(box) == {
                pa + po
                for pa in pts_a
                for po in other.points_in_box(box)
            }

        coeffs = {v: rng.randrange(1, 4) for v in names}
        offsets = {v: rng.randrange(0, 4) for v in names}
        image = A.affine_substitute(coeffs, offsets).points_in_box(box)
        expected = set()
        for p in pts_a:
            q = tuple(
                coeffs[v] * p[i] + offsets[v] for i, v in enumerate(names)
            )
            if all(val <= box for val in q):
                expected.add(q)
        assert image == expected


def test_criterion_6_finite_extensions():
    from knapsolve.groups import cyclic_group

    rng = random.Random(2031)
    z_in_z = build_backend(Z_IN_Z_DESC)
    z2_in_z4 = FiniteExtBackend(
        cyclic_group(2, "s"), ["1", "t"],
        [
            ("1", "s", ["s"], "1"), ("1", "s'", ["s'"], "1"),
            ("1", "t", [], "t"), ("1", "t'", ["s"], "t"),
            ("t", "s", ["s"], "t"), ("t", "s'", ["s'"], "t"),
            ("t", "t", ["s"], "1"), ("t", "t'", [], "1"),
        ],
    )
    z3_in_s3 = FiniteExtBackend(
        cyclic_group(3, "r"), ["1", "f"],
        [
            ("1", "r", ["r"], "1"), ("1", "r'", ["r'"], "1"),
            ("1", "f", [], "f"), ("1", "f'", [], "f"),
            ("f", "r", ["r'"], "f"), ("f", "r'", ["r"], "f"),
            ("f", "f", [], "1"), ("f", "f'", [], "1"),
        ],
    )
    for name, backend in (
        ("z-index-2", z_in_z),
        ("z2-in-z4", z2_in_z4),
        ("z3-in-s3", z3_in_s3),
    ):
        letters = sorted(backend.alphabet)
        for trial in range(6):
            e = random_expression(rng, letters, 1 + trial % 2)
            S = solve_exponent(backend, e)
            report = compare(backend, e, S, 12)
            assert report["ok"], (name, e.factors, report["mismatches"][:5])

    # affine round trip: reconstruct the cycle branch of t^x t'^6 by
    # hand and map the raw subgroup solutions through the substitution
    backend = z_in_z
    sub = backend.subgroup
    k = backend._cycle("1", ("t",))
    assert k == 2
    g_cycle, c_cycle = backend.push("1", ("t",) * k)
    assert c_cycle == "1"
    # residue 0 keeps the final coset at 1
    g_tail, c_tail = backend.push("1", ("t'",) * 6)
    assert c_tail == "1"
    raw = solve_exponent(
        sub, ExponentExpression([(g_cycle, "x", g_tail)])
    )
    assert raw.points_in_box(12) == {(3,)}
    substituted = raw.affine_substitute({"x": k}, {"x": 0})
    direct = solve_exponent(backend, parse_expr("t^x t'^6"))
    assert substituted.points_in_box(12) == direct.points_in_box(12) == {(6,)}
