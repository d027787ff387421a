"""Repeated variables: instances that used to exhaust a budget.

Each expression repeats a variable.  Tied together on the diagonal of
renamed copies, these ran the Diophantine search into its node cap or
for seconds to a minute.  Z now sums a variable's coefficients, and the
finite-extension walk guesses a variable once, modulo the lcm of its
coset cycles; each instance answers well inside the time bound and
agrees with brute force.
"""

import time

import pytest

from knapsolve.expr import parse_expr
from knapsolve.finite_ext import solve_exponent_finite_ext
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.oracle import compare

#: Z as an index-2 extension of the subgroup <s> = 2Z, with t^2 = s
Z_IN_Z = {
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

INTEGERS = {"type": "IntegerGroup", "generator": "t"}

#: seconds; the instances take 0.03-0.5 s on a 2-vCPU VM
TIME_BOUND = 5.0


@pytest.mark.parametrize("desc, text", [
    (INTEGERS, "(t t)^y (t)^y t (t')^y (t')^x t (t')^z"),
    (Z_IN_Z, "(t')^y t' (s t')^x (s')^z s (t)^z (s' s')^z t"),
    (Z_IN_Z, "(s s)^z (s)^y (s' s')^y t (t)^x s' (t')^y"),
    (Z_IN_Z, "(t' s')^z s' (s' t)^z (t s')^x s (t' s)^z t' (t)^y"),
    (Z_IN_Z, "(t' t)^y s (t)^z (t' s)^x (t')^x (t')^x"),
    # these three stalled in one Diophantine search for 3 s to a minute
    (Z_IN_Z, "(s)^z s (t' s)^x (t')^y (s' s')^y (s t)^z s"),
    (Z_IN_Z, "(s t)^z (t s)^y (s t)^y (s' t)^x t' (s' s')^z"),
    (Z_IN_Z, "(t)^x (s t)^x t (t)^x s' (s' t')^y (t)^z s'"),
    # the diagonal of x's four copies ran into the Diophantine cap
    (Z_IN_Z, "(s t)^y (s')^x t (t' s')^x t' t' (s)^x (s t t')^x"),
])
def test_repeated_variable_instance_matches_oracle(desc, text):
    backend = build_backend(desc)
    e = parse_expr(text)
    solve = solve_exponent if desc is INTEGERS else solve_exponent_finite_ext
    start = time.perf_counter()
    sols = solve(backend, e)
    assert time.perf_counter() - start < TIME_BOUND
    report = compare(backend, e, sols, 3)
    assert report["ok"], report["mismatches"]
