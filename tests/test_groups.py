"""Base group backends, description validation and solve_exponent."""

import itertools
import random

import pytest

from knapsolve.errors import InputError
from knapsolve.expr import parse_expr
from knapsolve.finite_ext import solve_exponent_finite_ext
from knapsolve.gp_solver import GraphProductBackend, solve_exponent_graph_product
from knapsolve.groups import (
    MAX_NESTING,
    FiniteGroup,
    IntegerGroup,
    build_backend,
    cyclic_group,
    solve_exponent,
)
from knapsolve.hnn import HnnBackend, solve_exponent_amalgam, solve_exponent_hnn
from knapsolve.oracle import compare
from knapsolve.semilinear import LinearSet, SemilinearSet
from knapsolve.words import invert_word


def test_integer_word_problem():
    Z = IntegerGroup()
    assert Z.word_problem(("t", "t", "t'", "t'"))
    assert not Z.word_problem(("t",))
    assert Z.norm(("t", "t", "t'")) == 1
    with pytest.raises(InputError):
        Z.word_problem(("a",))


def test_integer_knapsack():
    Z = IntegerGroup()
    S = solve_exponent(Z, parse_expr("t^x t'^4"))
    assert S.points_in_box(10) == {(4,)}
    S = solve_exponent(Z, parse_expr("(t t)^x (t t t)^y t'^7"))
    assert S.points_in_box(10) == {(2, 1)}
    S = solve_exponent(Z, parse_expr("(t t)^x (t' t')^y"))
    assert S.points_in_box(9) == {(k, k) for k in range(10)}


def test_integer_repeated_variable():
    Z = IntegerGroup()
    S = solve_exponent(Z, parse_expr("t^x t^x t'^6"))
    assert S.points_in_box(10) == {(3,)}
    # one row over the distinct variables: x's coefficients sum to 0
    e = parse_expr("(t t)^x (t')^y (t' t')^x t")
    S = solve_exponent(Z, e)
    assert S.points_in_box(6) == {(x, 1) for x in range(7)}


def test_finite_repeated_variable_takes_the_lcm_of_orders():
    Z6 = cyclic_group(6, "a")
    e = parse_expr("(a a)^x (a a a)^x a (a a a)^y")
    S = solve_exponent(Z6, e)
    assert S.points_in_box(12) == {
        (x, y) for x in range(13) for y in range(13)
        if (5 * x + 1 + 3 * y) % 6 == 0
    }
    assert {p for c in S.components for p in c.periods} == {(6, 0), (0, 2)}


def test_cyclic_group_word_problem():
    Z2 = cyclic_group(2, "a")
    assert not Z2.word_problem(("a", "a", "a"))
    assert Z2.word_problem(("a", "a"))
    assert Z2.word_problem(("a", "a'"))
    assert Z2.norm(("a",)) == 1


def test_finite_knapsack():
    Z2 = cyclic_group(2, "a")
    S = solve_exponent(Z2, parse_expr("a^x a"))
    assert S.points_in_box(9) == {(k,) for k in range(1, 10, 2)}
    Z3 = cyclic_group(3, "b")
    S = solve_exponent(Z3, parse_expr("b^x"))
    assert S.points_in_box(9) == {(k,) for k in range(0, 10, 3)}
    assert S.magnitude() <= 3
    S = solve_exponent(Z2, parse_expr("a^x a^y a"))
    assert S.points_in_box(8) == {
        (x, y) for x in range(9) for y in range(9) if (x + y) % 2 == 1
    }


def test_finite_group_validation():
    with pytest.raises(InputError):
        FiniteGroup(["e", "a"], [[0, 1], [1, 1]], {"a": 1})  # not a group
    with pytest.raises(InputError):
        FiniteGroup(["e", "a"], [[0, 1]], {"a": 1})  # ragged
    with pytest.raises(InputError):
        FiniteGroup(["e", "a"], [[0, 1], [1, 0]], {"a": 7})  # bad generator


def test_word_inverse_property():
    rng = random.Random(3)
    for backend in (IntegerGroup(), cyclic_group(2, "a"), cyclic_group(5, "c")):
        letters = sorted(backend.alphabet)
        for _ in range(25):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 8)))
            assert backend.word_problem(w + invert_word(w))


def test_build_backend_leaves():
    Z = build_backend({"type": "IntegerGroup", "generator": "t"})
    assert Z.word_problem(("t", "t'"))
    Z4 = build_backend({"type": "CyclicGroup", "order": 4, "generator": "a"})
    assert Z4.word_problem(("a",) * 4)
    desc = {
        "type": "FiniteGroup",
        "elements": ["e", "a"],
        "table": [[0, 1], [1, 0]],
        "generators": {"a": 1},
    }
    Z2 = build_backend(desc)
    assert Z2.word_problem(("a", "a"))
    with pytest.raises(InputError):
        build_backend({"type": "Nonsense"})
    with pytest.raises(InputError):
        build_backend([1, 2])


Z = {"type": "IntegerGroup", "generator": "z"}
Z2 = {"type": "CyclicGroup", "order": 2, "generator": "a"}
HNN = {"type": "Hnn", "base": Z2, "stable_letter": "t", "A": [[]], "B": [[]]}
AMALGAM = {
    "type": "Amalgam", "left": Z2, "right": {**Z2, "generator": "b"},
    "phi1": [[]], "phi2": [[]],
}
Z_IN_Z = {
    "type": "FiniteExt", "subgroup": {"type": "IntegerGroup", "generator": "s"},
    "cosets": ["1", "u"],
    "rules": [
        ["1", "s", ["s"], "1"], ["1", "s'", ["s'"], "1"],
        ["1", "u", [], "u"], ["1", "u'", ["s'"], "u"],
        ["u", "s", ["s"], "u"], ["u", "s'", ["s'"], "u"],
        ["u", "u", ["s"], "1"], ["u", "u'", [], "1"],
    ],
}



def _with_rows(desc, *rows):
    """desc with its rule for each row's coset and letter replaced by it."""
    new = {tuple(row[:2]): row for row in rows}
    return {**desc, "rules": [new.get(tuple(r[:2]), r) for r in desc["rules"]]}


@pytest.mark.parametrize("desc, path", [
    # malformed fields
    ({"type": "Hnn", "A": [], "B": []}, "$.base"),
    ({"type": "FiniteExt", "subgroup": Z, "cosets": ["1"]}, "$.rules"),
    ({"type": "CyclicGroup", "order": 0}, "$.order"),
    ({"type": "CyclicGroup", "order": "x"}, "$.order"),
    ({"type": "GraphProduct", "vertices": [Z2, Z], "edges": [[0]]}, "$.edges"),
    ({"type": "FiniteGroup", "elements": ["e"], "table": "x",
      "generators": {}}, "$.table"),
    ({"type": "FreeProduct", "children": [Z, {"type": "CyclicGroup",
                                             "order": 0}]},
     "$.children[1].order"),
    ({"type": "Hnn", "base": {"type": "Nonsense"}, "A": [], "B": []},
     "$.base.type"),
    ({"type": "GraphProduct", "vertices": [Z2, Z], "edges": [[0, 5]]}, "$"),
    # vertices, bases and amalgam factors without geodesic element words
    ({"type": "GraphProduct", "vertices": [HNN, Z]}, "$.vertices[0]"),
    ({"type": "FreeProduct", "children": [Z, Z_IN_Z]}, "$.children[1]"),
    ({"type": "Hnn", "base": HNN, "stable_letter": "r", "A": [[]], "B": [[]]},
     "$.base"),
    ({"type": "Hnn", "base": Z_IN_Z, "A": [[]], "B": [[]]}, "$.base"),
    ({"type": "Amalgam", "left": Z, "right": AMALGAM, "phi1": [[]],
      "phi2": [[]], "stable_letter": "r"}, "$.right"),
    # coset tables that describe no group over their subgroup: u' u moves
    # coset 1, s stands for s^2 at coset 1, and s and s' swap there
    (_with_rows(Z_IN_Z, ["1", "u'", [], "1"]), "$"),
    (_with_rows(Z_IN_Z, ["1", "s", ["s", "s"], "1"]), "$"),
    (_with_rows(Z_IN_Z, ["1", "s", ["s'"], "1"], ["1", "s'", ["s"], "1"]),
     "$"),
])
def test_malformed_description_names_its_path(desc, path):
    with pytest.raises(InputError) as info:
        build_backend(desc)
    assert str(info.value).startswith(path + ": "), str(info.value)


def test_constructors_reject_groups_without_elements():
    hnn = build_backend(HNN)
    with pytest.raises(InputError, match="^vertex 1: HnnBackend"):
        GraphProductBackend([cyclic_group(2, "b"), hnn], [])
    with pytest.raises(InputError, match="^base: HnnBackend"):
        HnnBackend(hnn, "r", [()], [()])


def test_solve_knapsack_finite_magnitude_bound():
    for n in (2, 3, 4, 6):
        G = cyclic_group(n, "a")
        e = parse_expr("a^x (a a)^y a")
        S = solve_exponent(G, e)
        assert S.magnitude() <= n
        for v in itertools.product(range(12), repeat=2):
            expected = G.word_problem(e.evaluate(dict(zip(("x", "y"), v))))
            assert S.membership(v) == expected


def test_per_constructor_names_are_the_solve_entry():
    for name in (solve_exponent_graph_product, solve_exponent_hnn,
                 solve_exponent_amalgam, solve_exponent_finite_ext):
        assert name is solve_exponent


@pytest.mark.parametrize("desc, text", [
    ({"type": "FreeProduct", "children": [
        {"type": "CyclicGroup", "order": 2, "generator": "a"},
        {"type": "CyclicGroup", "order": 3, "generator": "b"}]},
     "(a b)^x (b' a)^y"),
    ({"type": "Hnn", "base": {"type": "CyclicGroup", "order": 2},
      "A": [[], ["a"]], "B": [[], ["a"]]}, "(a t)^x t' a"),
    ({"type": "IntegerGroup"}, "t^x t'^3"),
])
def test_description_gets_the_answer_of_its_backend(desc, text):
    e = parse_expr(text)
    by_desc, by_backend = {}, {}
    assert solve_exponent(desc, e, diagnostics=by_desc) == solve_exponent(
        build_backend(desc), e, diagnostics=by_backend)
    assert by_desc == by_backend


def _finite_ext_chain(levels):
    """Trivial finite extensions of Z, nested levels deep in all."""
    desc = {"type": "IntegerGroup", "generator": "s"}
    for _ in range(levels - 1):
        desc = {"type": "FiniteExt", "subgroup": desc, "cosets": ["1"],
                "rules": [["1", "s", ["s"], "1"], ["1", "s'", ["s'"], "1"]]}
    return desc


def _free_product_chain(levels):
    """Z2 * (Z2 * (... * Z2)), nested levels deep in all, with a0 at the
    bottom."""
    desc = {"type": "CyclicGroup", "order": 2, "generator": "a0"}
    for k in range(1, levels):
        desc = {"type": "FreeProduct", "children": [
            {"type": "CyclicGroup", "order": 2, "generator": f"a{k}"}, desc]}
    return desc


@pytest.mark.parametrize("text", ["(s)^x (s)^y (s')^z", "(s)^x (s')^y s"])
def test_nested_index_one_extensions_answer_one_component(text):
    """Each level of the chain is Z again, and its walk guesses once."""
    backend = build_backend(_finite_ext_chain(MAX_NESTING))
    e = parse_expr(text)
    sols = solve_exponent(backend, e)
    assert len(sols.components) == 1
    report = compare(backend, e, sols, 5)
    assert report["ok"], report["mismatches"][:5]


@pytest.mark.parametrize("chain, text, base, periods", [
    (_finite_ext_chain, "(s)^x s'", (1,), []),
    (_free_product_chain, "(a0)^x a0", (1,), [(2,)]),
], ids=["finite-ext", "free-product"])
def test_nesting_limit_builds_and_solves_at_the_limit(chain, text, base,
                                                      periods):
    e = parse_expr(text)
    sols = solve_exponent(build_backend(chain(MAX_NESTING)), e)
    assert sols == SemilinearSet(("x",), [LinearSet(base, periods)])
    with pytest.raises(InputError, match=f"nest deeper than {MAX_NESTING}"):
        build_backend(chain(MAX_NESTING + 1))
