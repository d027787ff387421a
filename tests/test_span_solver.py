"""The span solver against the depth-first search it replaces.

Edgeless graph products, HNN-extensions and amalgams run their reduction
search as a span solver; the depth-first search over states, driven by
the same move generators, stays for graph products with edges.  Here
both run on the same item tuples with small caps and must return the
same {records: orders} map, up to the order of each outcome's records.

The span solver is a plain memo: it requires that no tuple reaches
itself.  The HNN moves keep that by never splitting a constant without
the stable letter (its pieces could only merge back), and a toy search
whose moves break it must fail with an AssertionError.
"""

import random
import time

import pytest

from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.gp_solver import GraphProductScheme, ReductionSearch
from knapsolve.groups import build_backend, cyclic_group, solve_exponent
from knapsolve.hnn import (
    AmalgamBackend,
    HnnBackend,
    HnnReductionSearch,
    HnnScheme,
)
from knapsolve.oracle import compare
from knapsolve.reduction import SEARCH_STATES_CAP, ReductionSearchBase

FREE_Z2_Z3 = {
    "type": "FreeProduct",
    "children": [
        {"type": "CyclicGroup", "order": 2, "generator": "a"},
        {"type": "CyclicGroup", "order": 3, "generator": "b"},
    ],
}


class DfsHnnSearch(HnnReductionSearch):
    """The HNN search run by the depth-first search, as a reference."""

    use_dfs = True


def free_z2_z3():
    return build_backend(FREE_Z2_Z3)


def hnn_z2():
    return HnnBackend(cyclic_group(2, "a"), "t", [(), ("a",)], [(), ("a",)])


def amalgam_z4_z2_z4():
    return AmalgamBackend(
        cyclic_group(4, "a"), cyclic_group(4, "b"), [("a", "a")], [("b", "b")]
    ).hnn


def schemes():
    return {
        "free-z2-z3": GraphProductScheme(free_z2_z3()),
        "hnn-z2": HnnScheme(hnn_z2()),
        "amalgam-z4-z2-z4": HnnScheme(amalgam_z4_z2_z4()),
    }


def branch_items(scheme, e):
    """Well-behaved powers and items of the branch where no power is 0."""
    prep, _K = scheme.preprocess(e)
    period = {i: u for i, (u, _v) in enumerate(prep.powers, 1)}
    wb = {i: u for i, u in period.items() if not scheme.is_atomic(u)}
    items = [] if prep.tails[0].is_identity() else [("C", prep.tails[0])]
    for i, u in period.items():
        items.append(("W", i) if i in wb else scheme.atomic_item(i, u))
        if not prep.tails[i].is_identity():
            items.append(("C", prep.tails[i]))
    return wb, tuple(items)


def random_cases(scheme, rng, count):
    """Seeded tuples of 1-5 items from expressions with 1-3 factors."""
    letters = sorted(scheme.backend.alphabet)
    if isinstance(scheme, HnnScheme):
        letters = [x for x in letters if x[0] != "t"] + ["t", "t'"]
    out = []
    while len(out) < count:
        factors = []
        for k in range(rng.randrange(1, 4)):
            period = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 4)))
            tail = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 3)))
            factors.append((period, "xyz"[k], tail))
        wb, items = branch_items(scheme, ExponentExpression(factors))
        if 1 <= len(items) <= 5:
            out.append((wb, items, rng.randrange(0, 4), rng.randrange(0, 3)))
    return out


def both_searches(scheme, wb, splits_cap, creation_cap):
    if isinstance(scheme, HnnScheme):
        span = HnnReductionSearch(
            scheme.backend, wb, splits_cap, creation_cap, SEARCH_STATES_CAP
        )
        dfs = DfsHnnSearch(
            scheme.backend, wb, splits_cap, creation_cap, SEARCH_STATES_CAP
        )
    else:
        monoid = scheme.backend.monoid
        span = ReductionSearch(
            monoid, wb, splits_cap, creation_cap, SEARCH_STATES_CAP
        )
        dfs = ReductionSearch(
            monoid, wb, splits_cap, creation_cap, SEARCH_STATES_CAP
        )
        dfs.use_dfs = True
    assert not span.use_dfs
    return span, dfs


def by_record_set(results):
    """A search's {records: orders} map, keyed by frozensets."""
    return {frozenset(records): orders for records, orders in results.items()}


@pytest.mark.parametrize("name", ["free-z2-z3", "hnn-z2", "amalgam-z4-z2-z4"])
def test_span_solver_matches_dfs(name):
    scheme = schemes()[name]
    rng = random.Random(f"span-solver:{name}")
    refused = 0
    for wb, items, splits_cap, creation_cap in random_cases(scheme, rng, 40):
        span, dfs = both_searches(scheme, wb, splits_cap, creation_cap)
        # each search lists an outcome's records in the order it met
        # them, which differs between the two
        expected = by_record_set(dfs.run(items))
        got = by_record_set(span.run(items))
        assert got == expected, (items, splits_cap, creation_cap)
        # the span solver flags FACTOR_CAP only where the DFS met it too
        assert dfs.refused_split or not span.refused_split, items
        refused += span.refused_split
    assert refused or name == "free-z2-z3"


HNN_Z2 = {
    "type": "Hnn",
    "base": {"type": "CyclicGroup", "order": 2, "generator": "a"},
    "stable_letter": "t",
    "A": [[], ["a"]],
    "B": [[], ["a"]],
}
AMALGAM_Z4_Z2_Z4 = {
    "type": "Amalgam",
    "left": {"type": "CyclicGroup", "order": 4, "generator": "a"},
    "right": {"type": "CyclicGroup", "order": 4, "generator": "b"},
    "phi1": [["a", "a"]],
    "phi2": [["b", "b"]],
    "stable_letter": "t",
}


@pytest.mark.parametrize("desc, text, box", [
    # a probe of the reduction search over hnn-z2
    (HNN_Z2, "t^x t'^y t'^z", 3),
    # solve-corpus instances that stalled at the benchmark's limit
    (FREE_Z2_Z3, "(a b')^x (b')^y (b a)^z a", 3),
    (AMALGAM_Z4_Z2_Z4, "(b' a' b)^x a b (a' b)^y b", 4),
    (AMALGAM_Z4_Z2_Z4, "(a b b)^x a (b')^y b (a b)^z", 3),
    # split base constants merged back here (amalgam d3/5 of solve-corpus)
    (AMALGAM_Z4_Z2_Z4, "(a' b')^x (a')^y (b b a)^z", 3),
])
def test_edgeless_searches_answer(desc, text, box):
    backend = build_backend(desc)
    e = parse_expr(text)
    start = time.perf_counter()
    sols = solve_exponent(backend, e)
    assert time.perf_counter() - start < 5.0
    report = compare(backend, e, sols, box)
    assert report["ok"], report["mismatches"][:3]


def test_base_constants_never_split():
    backend = amalgam_z4_z2_z4()
    search = HnnReductionSearch(backend, {}, 4, 4, SEARCH_STATES_CAP)
    item = ("C", backend.parse(("b", "b")))
    assert item[1].is_base()
    assert list(search.unary_moves(item)) == []
    # a constant with the stable letter still splits
    item = ("C", backend.parse(("b", "t", "b")))
    assert any(split for _out, _recs, split in search.unary_moves(item))


class MergeBackSearch(ReductionSearchBase):
    """A toy search: "ab" splits into "a" and "b", which merge back."""

    def unary_moves(self, item):
        if item[1] == "ab":
            yield (("C", "a"), ("C", "b")), (), True

    def binary_moves(self, left, right):
        if (left[1], right[1]) == ("a", "b"):
            yield (("C", "ab"),), (), None


def test_span_solver_rejects_a_tuple_that_reaches_itself():
    search = MergeBackSearch({}, 2, 2, SEARCH_STATES_CAP)
    with pytest.raises(AssertionError, match="from itself"):
        search.run((("C", "ab"),))
