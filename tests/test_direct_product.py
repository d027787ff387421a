"""Graph products over a join solved as direct products.

A join splits into co-components, and solve_exponent_graph_product
intersects the solution sets of the projections of e onto them.  The
split answer is compared with the unsplit reduction search
(solve_by_reduction on the whole graph product) wherever that finishes
within a few seconds, and with brute force everywhere.  The pinned
instances are benchmark instances on which the unsplit search timed out
or sat on the benchmark's limit.
"""

import random
import signal
import time
from contextlib import contextmanager

import pytest

from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.gp_solver import GraphProductScheme, solve_exponent_graph_product
from knapsolve.groups import build_backend
from knapsolve.oracle import compare
from knapsolve.reduction import SEARCH_STATES_CAP, Limits, solve_by_reduction


def cyclic(order, generator):
    return {"type": "CyclicGroup", "order": order, "generator": generator}


GROUPS = {
    "z2xz3": {
        "type": "GraphProduct",
        "vertices": [cyclic(2, "a"), cyclic(3, "b")],
        "edges": [[0, 1]],
    },
    "path-p3": {
        "type": "GraphProduct",
        "vertices": [cyclic(2, "a"), cyclic(2, "b"), cyclic(2, "c")],
        "edges": [[0, 1], [1, 2]],
    },
    "cycle-c4-z3": {
        "type": "GraphProduct",
        "vertices": [cyclic(2, "a"), cyclic(2, "b"), cyclic(3, "c"),
                     cyclic(2, "d")],
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
    },
    "free-z2-z2-x-z3": {
        "type": "GraphProduct",
        "vertices": [
            {"type": "FreeProduct",
             "children": [cyclic(2, "a"), cyclic(2, "b")]},
            cyclic(3, "c"),
        ],
        "edges": [[0, 1]],
    },
    "zxz2": {
        "type": "GraphProduct",
        "vertices": [{"type": "IntegerGroup", "generator": "t"},
                     cyclic(2, "a")],
        "edges": [[0, 1]],
    },
}

DIRECT_Z2_Z2 = {
    "type": "GraphProduct",
    "vertices": [cyclic(2, "a"), cyclic(2, "b")],
    "edges": [[0, 1]],
}

#: perfbench/corpus.py: hard/1, hard/2 and direct-z2-z2/rep/4, 5, 7, 12,
#: 17 and 19
PINNED = [
    (GROUPS["path-p3"], "(a b c)^x (c' b' a')^y"),
    (GROUPS["path-p3"], "(a c)^x b (a c)^y b"),
    (DIRECT_Z2_Z2, "(b a)^y b (b')^x (a b)^z b (a' b)^y a' (a' b)^y"),
    (DIRECT_Z2_Z2, "(b a')^z (b b)^x a (a')^y b (b' a')^x b (b' a')^x a"),
    (DIRECT_Z2_Z2, "(a' b)^z a' (a)^y a' (a' b')^z (a' b')^x b' (a)^x"),
    (DIRECT_Z2_Z2, "(a')^z a (a b')^y b' (b' b)^x a (b')^x b (a')^y a'"),
    (DIRECT_Z2_Z2, "(b)^x (a b)^x a' (b a')^z (b')^y (b)^z a'"),
    (DIRECT_Z2_Z2, "(a' b')^y b (b' a)^x a' (b')^x (b)^z b' (b)^y"),
]

UNSPLIT_LIMIT_S = 3


class _Slow(Exception):
    pass


@contextmanager
def _time_limit(seconds):
    def on_alarm(signum, frame):
        raise _Slow

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_expression(rng, letters):
    """Degree 1-3, periods of 1-3 letters, tails of 0-2, at most 8 letters."""
    deg = rng.randrange(1, 4)
    while True:
        e = ExponentExpression([
            (tuple(rng.choice(letters) for _ in range(rng.randrange(1, 4))),
             "xyz"[k],
             tuple(rng.choice(letters) for _ in range(rng.randrange(0, 3))))
            for k in range(deg)
        ])
        if e.length() <= 8:
            return e


def test_co_components():
    path = build_backend(GROUPS["path-p3"])
    outer, middle = path.direct_factors
    assert sorted(outer.alphabet) == ["a", "a'", "c", "c'"]
    assert not outer.monoid.edges and not outer.direct_factors
    assert middle is path.monoid.vertices[1]
    cycle = build_backend(GROUPS["cycle-c4-z3"])
    assert [sorted(f.alphabet) for f in cycle.direct_factors] == [
        ["a", "a'", "c", "c'"], ["b", "b'", "d", "d'"],
    ]
    free = build_backend({"type": "FreeProduct",
                          "children": [cyclic(2, "a"), cyclic(3, "b")]})
    assert free.direct_factors == ()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_split_agrees_with_unsplit_search_and_brute_force(name):
    backend = build_backend(GROUPS[name])
    letters = sorted(backend.alphabet)
    rng = random.Random(f"direct-product:{name}")
    for _ in range(25):
        e = random_expression(rng, letters)
        sols = solve_exponent_graph_product(backend, e)
        report = compare(backend, e, sols, 4)
        assert report["ok"], (name, e.factors, report["mismatches"][:3])
        try:
            with _time_limit(UNSPLIT_LIMIT_S):
                unsplit = solve_by_reduction(
                    GraphProductScheme(backend), e,
                    Limits(None, SEARCH_STATES_CAP, None),
                )
        except _Slow:
            continue
        assert unsplit.points_in_box(4) == sols.points_in_box(4), e.factors


@pytest.mark.parametrize("desc, text", PINNED)
def test_benchmark_stalls_answer(desc, text):
    backend = build_backend(desc)
    e = parse_expr(text)
    diag = {}
    start = time.perf_counter()
    sols = solve_exponent_graph_product(backend, e, diagnostics=diag)
    assert time.perf_counter() - start < 1
    assert diag["complete"]
    box = 6 if len(e.variables) == 2 else 3
    report = compare(backend, e, sols, box)
    assert report["ok"], report["mismatches"][:3]


def test_constant_projection_decides_by_the_word_problem():
    backend = build_backend(DIRECT_Z2_Z2)
    assert solve_exponent_graph_product(
        backend, parse_expr("a^x b")
    ).is_empty_representation()
    sols = solve_exponent_graph_product(backend, parse_expr("a^x b b"))
    assert sols.points_in_box(6) == {(x,) for x in range(0, 7, 2)}
