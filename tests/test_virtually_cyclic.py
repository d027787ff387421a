"""Virtually cyclic groups solve over Z.

Hnn(F, A = B = F, phi), an amalgam of finite factors over a subgroup of
index 2 in each, and the graph product Z2 * Z2 have an infinite cyclic
subgroup <z> of finite index (module virtually_cyclic), and solve as
the finite extension of Z given by its coset table.  Each corpus group
of the three kinds has a hand-written FiniteExt table as an isomorphic
presentation:

  - hnn-z2 = Hnn(Z2, A = B = Z2) = Z2 x Z = <t> with cosets 1 and a;
  - amalgam-z4-z2-z4 = Z4 *_{Z2} Z4 = Z x| Z4, with z = a b, a z a' =
    z', cosets 1, a, q = a a and a^3, where b = z' a^3 names the coset
    a^3;
  - Z2 * Z2 = D_inf = Z x| Z2 with z = a b, a z a = z' and cosets 1 and
    a, where b = z' a (test_differential.Z2_Z2_OVER_Z, with z named s);
    path-p3 is (Z2 * Z2) x Z2 once its join split has run.

Seeded draws at degrees 1-4, repeated-variable draws and the corpus
instances amalgam-z4-z2-z4/d3/2 and path-p3/d3/1 and d3/3 must come
out complete, equal to brute force in a box, and equal to the answer
over the table.  Draws over a non-identity phi and over Z2 *_1 Z2
check the route where no table is written by hand, and a free product
with Z2 * Z2 as a vertex reaches it through a nested solve.  Groups
with chi < 0, and graph products other than Z2 * Z2, keep the
reduction search.
"""

import random

import pytest

from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.oracle import brute_force_solutions, compare
from knapsolve.virtually_cyclic import CyclicExtension
from test_differential import Z2_Z2_FREE, Z2_Z2_OVER_Z

#: brute-force box per number of variables
BOX = {1: 8, 2: 5, 3: 3, 4: 2}


def cyclic(order, generator):
    return {"type": "CyclicGroup", "order": order, "generator": generator}


def hnn(base, a_words, b_words):
    return {"type": "Hnn", "base": base, "stable_letter": "t",
            "A": a_words, "B": b_words}


def amalgam(left, right, phi1, phi2):
    return {"type": "Amalgam", "left": left, "right": right,
            "phi1": [phi1], "phi2": [phi2]}


def free_product(*children):
    return {"type": "FreeProduct", "children": list(children)}


HNN_Z2 = hnn(cyclic(2, "a"), [[], ["a"]], [[], ["a"]])
AMALGAM_Z4_Z2_Z4 = amalgam(cyclic(4, "a"), cyclic(4, "b"), ["a", "a"],
                           ["b", "b"])

#: Z2 x Z over <t>: a commutes with t and a a = 1
HNN_Z2_TABLE = {
    "type": "FiniteExt",
    "subgroup": {"type": "IntegerGroup", "generator": "t"},
    "cosets": ["1", "a"],
    "rules": [
        ["1", "t", ["t"], "1"], ["1", "t'", ["t'"], "1"],
        ["1", "a", [], "a"], ["1", "a'", [], "a"],
        ["a", "t", ["t"], "a"], ["a", "t'", ["t'"], "a"],
        ["a", "a", [], "1"], ["a", "a'", [], "1"],
    ],
}


def z_by_z4():
    """Z x| Z4 over <z> = Z: elements z^m a^j, with a^i z^m = z^(+-m) a^i
    (minus for odd i).  Cosets 1, a, q and b stand for a^0, ..., a^3."""
    names = ["1", "a", "q", "b"]
    # each letter as (m, j) with letter = z^m a^j
    letters = {"z": (1, 0), "z'": (-1, 0), "a": (0, 1), "a'": (0, 3),
               "q": (0, 2), "q'": (0, 2), "b": (-1, 3), "b'": (-1, 1)}
    rules = []
    for i, c in enumerate(names):
        for letter, (m, j) in letters.items():
            n = -m if i % 2 else m
            w = ["z"] * n if n >= 0 else ["z'"] * -n
            rules.append([c, letter, w, names[(i + j) % 4]])
    return {"type": "FiniteExt",
            "subgroup": {"type": "IntegerGroup", "generator": "z"},
            "cosets": names, "rules": rules}


AMALGAM_Z4_Z2_Z4_TABLE = z_by_z4()

PATH_P3 = {"type": "GraphProduct",
           "vertices": [cyclic(2, "a"), cyclic(2, "b"), cyclic(2, "c")],
           "edges": [[0, 1], [1, 2]]}

#: per group, the letters that its table writes as words: Z2_Z2_OVER_Z
#: has the letters s = a b and a, so b = s' a
TABLE_WORDS = {"z2-z2": {"b": ("s'", "a"), "b'": ("s'", "a")}}

#: name -> (description, generator letters, its table or None)
ROUTED = {
    "hnn-z2": (HNN_Z2, "at", HNN_Z2_TABLE),
    "amalgam-z4-z2-z4": (AMALGAM_Z4_Z2_Z4, "ab", AMALGAM_Z4_Z2_Z4_TABLE),
    # phi inverts Z3, so t moves the cosets b and b b
    "hnn-z3-inversion": (hnn(cyclic(3, "b"), [[], ["b"], ["b", "b"]],
                             [[], ["b", "b"], ["b"]]), "bt", None),
    "z2-z2-over-1": (amalgam(cyclic(2, "a"), cyclic(2, "b"), [], []),
                     "ab", None),
    "z2-z2": (Z2_Z2_FREE, "ab", Z2_Z2_OVER_Z),
    "path-p3": (PATH_P3, "abc", None),
}


def _letters(gens):
    return [x for a in gens for x in (a, a + "'")]


def _word(rng, letters, lo, hi):
    return tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _draws(name, count, repeated=False):
    """count seeded expressions over the group's letters: degrees 1-4
    over distinct variables, or 3-4 factors over one variable fewer."""
    rng = random.Random(f"virtually-cyclic-{name}-{repeated}")
    letters = _letters(ROUTED[name][1])
    out = []
    for k in range(count):
        if repeated:
            n = rng.randint(3, 4)
            names = [rng.choice("xyz"[:n - 1]) for _ in range(n)]
        else:
            names = "wxyz"[:1 + k % 4]
        out.append(ExponentExpression([
            (_word(rng, letters, 1, 3), var, _word(rng, letters, 0, 2))
            for var in names]))
    return out


def in_table(name, word):
    """word over the letters of the table of group name (TABLE_WORDS)."""
    words = TABLE_WORDS.get(name, {})
    return tuple(x for a in word for x in words.get(a, (a,)))


def routed_points(backend, e):
    """The answer's points in the box, checked complete and equal to
    brute force."""
    report = {}
    sols = solve_exponent(backend, e, diagnostics=report)
    assert report["complete"], e
    assert report["states"] == 0, "the route runs no reduction search"
    box = BOX[len(e.variables)]
    points = sols.points_in_box(box)
    assert points == brute_force_solutions(backend, e, box), e
    return points


@pytest.mark.parametrize("name", ["hnn-z2", "amalgam-z4-z2-z4", "z2-z2"])
def test_the_table_presents_the_group(name):
    desc, gens, table = ROUTED[name]
    group, ext = build_backend(desc), build_backend(table)
    letters = _letters(gens)
    rng = random.Random(f"table-{name}")
    equal = 0
    for _ in range(300):
        u, v = _word(rng, letters, 0, 7), _word(rng, letters, 0, 7)
        same = group.elem_from_word(u) == group.elem_from_word(v)
        assert same == (ext.elem_from_word(in_table(name, u))
                        == ext.elem_from_word(in_table(name, v))), (u, v)
        equal += same
    assert equal >= 10


@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("name", sorted(ROUTED))
def test_routed_draws_match_brute_force(name, repeated):
    desc, _gens, table = ROUTED[name]
    backend = build_backend(desc)
    ext = table and build_backend(table)
    nonempty = 0
    for e in _draws(name, 32, repeated):
        points = routed_points(backend, e)
        if ext is not None:
            ext_e = ExponentExpression([
                (in_table(name, p), var, in_table(name, t))
                for p, var, t in e.factors])
            assert points == solve_exponent(ext, ext_e).points_in_box(
                BOX[len(e.variables)]), e
        nonempty += bool(points)
    # the draws do not all compare empty sets
    assert nonempty >= 10


def test_amalgam_d3_2_is_answered_exactly():
    # solve-corpus amalgam-z4-z2-z4/d3/2, which the reduction search
    # answers without (2, 1, 0) and (2, 3, 2) (ROADMAP item 2)
    backend = build_backend(AMALGAM_Z4_Z2_Z4)
    e = parse_expr("(b' a)^x a' b (a')^y b (b')^z")
    points = routed_points(backend, e)
    assert {(2, 1, 0), (2, 3, 2), (1, 0, 1), (1, 2, 3)} <= points
    sols = solve_exponent(backend, e)
    assert sorted((c.base, c.periods) for c in sols.components) == [
        (base, ((0, 0, 4), (0, 4, 0)))
        for base in [(1, 0, 1), (1, 2, 3), (2, 1, 0), (2, 3, 2)]]


@pytest.mark.parametrize("desc, text", [
    (hnn(cyclic(6, "a"), [[], ["a"] * 3], [[], ["a"] * 3]),
     "(t a)^x (a' t')^y"),
    (amalgam(cyclic(4, "a"), cyclic(6, "b"), ["a", "a"], ["b"] * 3),
     "(a b)^x (b' a')^y"),
    (amalgam(cyclic(4, "a"), cyclic(4, "b"), [], []), "(a b)^x (b' a')^y"),
    (hnn(cyclic(4, "a"), [[]], [[]]), "(t a)^x (a' t')^y"),
], ids=["hnn-z6-cube", "z4-z2-z6", "z4-z4-over-1", "hnn-z4-trivial"])
def test_negative_euler_characteristic_keeps_the_search(desc, text):
    backend = build_backend(desc)
    report = {}
    solve_exponent(backend, parse_expr(text), diagnostics=report)
    assert backend.cyclic_extension is None
    assert report["states"] > 0


def test_a_period_equal_to_one_rewrites_to_one():
    # Hnn(Z1, A = B = 1) = Z = <t>: the letter a is 1, so the period of
    # (a)^x rewrites to no letters, and x is free
    backend = build_backend(hnn(cyclic(1, "a"), [[]], [[]]))
    e = parse_expr("(a)^x (t)^y t'")
    assert routed_points(backend, e) == {(x, 1) for x in range(6)}


@pytest.mark.parametrize("text, bases", [
    ("(a' c' b')^x c (c')^y (c a b)^z", [(0, 1, 0), (1, 1, 1)]),
    ("(a c')^x (c')^y (c')^z c a", [(1, 0, 0), (1, 1, 1)]),
], ids=["d3/3", "d3/1"])
def test_path_p3_corpus_instances_are_answered_exactly(text, bases):
    # solve-corpus path-p3/d3/3 and d3/1, which the graph-product search
    # on Z2 * Z2 flags incomplete, with 20 and 2 components
    backend = build_backend(PATH_P3)
    e = parse_expr(text)
    routed_points(backend, e)
    sols = solve_exponent(backend, e)
    assert sorted(c.base for c in sols.components) == bases


def test_a_nested_z2_z2_vertex_solves_over_z(monkeypatch):
    # (Z2 * Z2) * Z3: the outer free product runs the search, and its
    # nested solves over the vertex Z2 * Z2 take the route
    backend = build_backend(free_product(Z2_Z2_FREE, cyclic(3, "c")))
    inner = backend.monoid.vertices[0]
    routed = []
    shared = CyclicExtension.solve

    def counting(self, e, limits):
        routed.append(self.group)
        return shared(self, e, limits)

    monkeypatch.setattr(CyclicExtension, "solve", counting)
    for text in ("(a b)^x c (b a)^y c' (b a)^z",
                 "(b a)^x (c)^y (a c' b)^z a c b"):
        e = parse_expr(text)
        sols = solve_exponent(backend, e)
        assert compare(backend, e, sols, 6)["ok"], text
    assert routed and all(group is inner for group in routed)
    assert backend.cyclic_extension is None


@pytest.mark.parametrize("desc", [
    free_product(cyclic(2, "a"), cyclic(3, "b")),
    free_product(cyclic(2, "a"), cyclic(2, "b"), cyclic(2, "c")),
    free_product(cyclic(2, "a"), cyclic(4, "b")),
    {"type": "GraphProduct", "vertices": [cyclic(2, "a"), cyclic(2, "b")],
     "edges": [[0, 1]]},
], ids=["z2-z3", "z2-z2-z2", "z2-z4", "z2xz2"])
def test_other_graph_products_keep_the_search(desc):
    assert build_backend(desc).cyclic_extension is None
