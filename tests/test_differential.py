"""Differential fuzz: one drawn expression over two presentations of a group.

Each pair describes one group twice, so that the two solves run different
solvers: a finite extension against its subgroup or against a free
product, a nested against a flat free product, a graph product over a
join against a Cayley table, an HNN-extension with A = B = its base,
which solves as a finite extension of Z, against a direct product, and
the HNN-extension with trivial A = B and the amalgam over 1 that ROADMAP
item 2 is about against free products.  solve_exponent solves the free
product Z2 * Z2 as a finite extension of Z too, so its pair calls the
graph-product reduction search directly on that side.
Hypothesis draws small expressions over the left presentation's letters
(under a fixed seed, so every run sees the same draws); the right side
gets the same expression with each letter translated.  Both sides solve
under a states budget.  Complete answers must agree with each other and
with brute force in a box; an answer flagged incomplete may only miss
points.  A draw counts as answered when both sides finish with complete
answers, and each pair must answer a minimum number of draws, so budget
skips cannot hollow the test out.

The pairs of ROADMAP item 2 are strict xfails.  Each first solves a
pinned expression that it answers wrongly today, flagged incomplete, and
holds that answer to brute force whatever its flag says, so the pair
cannot pass by luck.

Repeated-variable draws over two index-2 extensions of Z, and over S3 as
an index-3 extension of Z2, check the finite-extension walk against
brute force in a box.  A repeated variable is guessed modulo the lcm of
the coset cycles of its occurrences; over S3 cycles of lengths 2 and 3
meet.
"""

import itertools

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from knapsolve.errors import BudgetExceededError
from knapsolve.expr import ExponentExpression, parse_expr
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.oracle import brute_force_solutions, compare
from test_gp_solver import search_solve

#: states budget of each solve; a draw that spends it is skipped
STATES_BUDGET = 3000
#: brute-force box per number of variables
BOX = {1: 8, 2: 5, 3: 3}
#: fixes the draws, whatever the test's source
DRAW_SEED = 0


def cyclic(order, generator):
    return {"type": "CyclicGroup", "order": order, "generator": generator}


def integers(generator):
    return {"type": "IntegerGroup", "generator": generator}


def symmetric_3():
    """S3 as a Cayley table with r = (0 1 2) and the flip f = (1 2)."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[i]] for i in range(3))] for q in perms]
             for p in perms]
    return {
        "type": "FiniteGroup",
        "elements": ["".join(map(str, p)) for p in perms],
        "table": table,
        "generators": {"r": index[(1, 2, 0)], "f": index[(0, 2, 1)]},
    }


def index_one(subgroup, letters):
    """The finite extension of subgroup by the identity coset alone."""
    rules = [["1", x, [x], "1"] for a in letters for x in (a, a + "'")]
    return {"type": "FiniteExt", "subgroup": subgroup, "cosets": ["1"],
            "rules": rules}


S3_Z = {"type": "GraphProduct", "vertices": [symmetric_3(), integers("z")],
        "edges": [[0, 1]]}

#: Z2*Z2 = <a, b> as the index-2 extension of Z = <s> with s = a b
Z2_Z2_OVER_Z = {
    "type": "FiniteExt",
    "subgroup": integers("s"),
    "cosets": ["1", "a"],
    "rules": [
        ["1", "s", ["s"], "1"], ["1", "s'", ["s'"], "1"],
        ["1", "a", [], "a"], ["1", "a'", [], "a"],
        ["a", "s", ["s'"], "a"], ["a", "s'", ["s"], "a"],
        ["a", "a", [], "1"], ["a", "a'", [], "1"],
    ],
}
Z2_Z2_FREE = {"type": "FreeProduct", "children": [cyclic(2, "a"), cyclic(2, "b")]}

#: Z = <t> as the index-2 extension of its subgroup <s> = 2Z
Z_IN_Z = {
    "type": "FiniteExt",
    "subgroup": integers("s"),
    "cosets": ["1", "t"],
    "rules": [
        ["1", "s", ["s"], "1"], ["1", "s'", ["s'"], "1"],
        ["1", "t", [], "t"], ["1", "t'", ["s'"], "t"],
        ["t", "s", ["s"], "t"], ["t", "s'", ["s'"], "t"],
        ["t", "t", ["s"], "1"], ["t", "t'", [], "1"],
    ],
}


def s3_over_flip():
    """S3 as the index-3 extension of its subgroup <f>, f = (1 2).

    The cosets are 1, r and q = r r, with r = (0 1 2); the coset names
    are letters too, so q stands for r r.  f moves the cosets on cycles
    of lengths 1 and 2, r on one of length 3, so a variable over both
    periods has its residue modulo 6.
    """
    def mul(p, q):
        return tuple(q[p[i]] for i in range(3))

    one, f, r = (0, 1, 2), (0, 2, 1), (1, 2, 0)
    inverse = {p: q for p in itertools.permutations(range(3))
               for q in itertools.permutations(range(3)) if mul(p, q) == one}
    cosets = {"1": one, "r": r, "q": mul(r, r)}
    letters = {"f": f, "r": r, "q": cosets["q"]}
    letters.update({a + "'": inverse[p] for a, p in list(letters.items())})
    rules = []
    for c, x in cosets.items():
        for a, y in letters.items():
            for d, z in cosets.items():
                g = mul(mul(x, y), inverse[z])
                if g in (one, f):
                    rules.append([c, a, [] if g == one else ["f"], d])
    return {"type": "FiniteExt", "subgroup": cyclic(2, "f"),
            "cosets": list(cosets), "rules": rules}


S3_OVER_FLIP = s3_over_flip()

Z2, Z3 = cyclic(2, "a"), cyclic(3, "b")
NESTED_FREE = {"type": "FreeProduct", "children": [
    {"type": "FreeProduct", "children": [Z2, Z3]}, integers("z")]}
FLAT_FREE = {"type": "FreeProduct", "children": [Z2, Z3, integers("z")]}

Z2_Z3_PRODUCT = {"type": "GraphProduct", "vertices": [Z2, Z3], "edges": [[0, 1]]}
Z6_TABLE = {
    "type": "FiniteGroup",
    "elements": [str(i) for i in range(6)],
    "table": [[(i + j) % 6 for j in range(6)] for i in range(6)],
    "generators": {"a": 3, "b": 2},
}

Z4_A, Z4_B = cyclic(4, "a"), cyclic(4, "b")
Z4_Z4_AMALGAM = {"type": "Amalgam", "left": Z4_A, "right": Z4_B,
                 "phi1": [[]], "phi2": [[]]}
Z4_Z4_FREE = {"type": "FreeProduct", "children": [Z4_A, Z4_B]}

Z4_HNN_TRIVIAL = {"type": "Hnn", "base": Z4_A, "stable_letter": "t",
                  "A": [[]], "B": [[]]}
Z4_FREE_Z = {"type": "FreeProduct", "children": [Z4_A, integers("t")]}

Z4_ALL = [["a"] * i for i in range(4)]
Z4_HNN_FULL = {"type": "Hnn", "base": Z4_A, "stable_letter": "t",
               "A": Z4_ALL, "B": Z4_ALL}
Z4_TIMES_Z = {"type": "GraphProduct", "vertices": [Z4_A, integers("t")],
              "edges": [[0, 1]]}


class Pair:
    """Two presentations of one group and how to draw over them.

    letters are the left side's generators (inverses are drawn too);
    translate maps a left letter to its word on the right side (default:
    the letter itself); pinned expressions, over the left letters, are
    solved before the draws and must be answered exactly.  right_solve
    solves the right side (default: solve_exponent).
    """

    def __init__(self, left, right, letters, *, degree, draws, answered,
                 translate=None, pinned=(), right_solve=solve_exponent):
        self.left = build_backend(left)
        self.right = build_backend(right)
        self.alphabet = sorted(x for a in letters for x in (a, a + "'"))
        self.degree = degree
        self.draws = draws
        self.answered = answered
        self.translate = translate or {}
        self.pinned = pinned
        self.right_solve = right_solve

    def right_expr(self, e):
        def tr(word):
            return tuple(y for x in word for y in self.translate.get(x, (x,)))

        return ExponentExpression(
            [(tr(p), var, tr(t)) for p, var, t in e.factors])


def solve_and_check(backend, e, box, exact=False, solve=solve_exponent):
    """Points of the answer in the box, or None if not answered exactly.

    A spent budget gives None.  A complete answer must equal brute force
    in the box; an answer flagged incomplete must miss points only, and
    gives None too, unless exact asks it to be right all the same.
    """
    report = {}
    try:
        sols = solve(backend, e, states_budget=STATES_BUDGET,
                     diagnostics=report)
    except BudgetExceededError:
        assert not exact, "budget spent"
        return None
    points = sols.points_in_box(box)
    truth = brute_force_solutions(backend, e, box)
    missing, extra = sorted(truth - points), sorted(points - truth)
    assert not extra, (type(backend).__name__, "extra", extra)
    if not report.get("complete", True) and not exact:
        return None
    assert not missing, (type(backend).__name__, "missing", missing)
    return points


def agree(pair, e, exact=False):
    """True if both sides answered e exactly (and agree), False if skipped."""
    box = BOX[len(e.variables)]
    left = solve_and_check(pair.left, e, box, exact)
    right = solve_and_check(pair.right, pair.right_expr(e), box, exact,
                            pair.right_solve)
    if left is None or right is None:
        return False
    assert left == right
    return True


@st.composite
def expressions(draw, alphabet, max_degree):
    """Distinct variables; periods of 1-3 letters, tails of 0-2."""
    def word(lo, hi):
        return tuple(draw(st.lists(st.sampled_from(alphabet),
                                   min_size=lo, max_size=hi)))

    degree = draw(st.integers(1, max_degree))
    return ExponentExpression(
        [(word(1, 3), "xyz"[k], word(0, 2)) for k in range(degree)])


def check_pair(pair):
    for text in pair.pinned:
        agree(pair, parse_expr(text), exact=True)
    answered = []

    @seed(DRAW_SEED)
    @settings(max_examples=pair.draws, deadline=None, database=None)
    @given(expressions(pair.alphabet, pair.degree))
    def draw_and_agree(e):
        if agree(pair, e):
            answered.append(e)

    draw_and_agree()
    assert len(answered) >= pair.answered, (len(answered), pair.draws)


PAIRS = {
    "finite-ext-index-1": lambda: Pair(
        index_one(S3_Z, "rfz"), S3_Z, "rfz",
        degree=3, draws=40, answered=36),
    # degree 2: a degree-3 draw spent 34 s in the free product's outcome
    # assembly (ROADMAP item 4)
    "z2-z2-over-z": lambda: Pair(
        Z2_Z2_OVER_Z, Z2_Z2_FREE, "sa",
        degree=2, draws=40, answered=27,
        translate={"s": ("a", "b"), "s'": ("b'", "a'")},
        right_solve=search_solve),
    "nested-free-product": lambda: Pair(
        NESTED_FREE, FLAT_FREE, "abz",
        degree=2, draws=30, answered=21),
    "join-against-table": lambda: Pair(
        Z2_Z3_PRODUCT, Z6_TABLE, "ab",
        degree=3, draws=40, answered=36),
    # A = B = the base, so the HNN-extension is virtually Z and solves
    # as a finite extension of Z, exactly; the reduction search on such
    # a group is pinned in test_search_work.py
    "hnn-whole-base": lambda: Pair(
        Z4_HNN_FULL, Z4_TIMES_Z, "at",
        degree=3, draws=30, answered=30),
}

XFAIL_PAIRS = {
    "amalgam-over-1": lambda: Pair(
        Z4_Z4_AMALGAM, Z4_Z4_FREE, "ab",
        degree=2, draws=25, answered=20,
        pinned=["(a b)^x (b' a')^y"]),
    "hnn-trivial-subgroups": lambda: Pair(
        Z4_HNN_TRIVIAL, Z4_FREE_Z, "at",
        degree=2, draws=25, answered=20,
        pinned=["(a)^x a' t' (t a' a')^y a'"]),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_presentations_agree(name):
    check_pair(PAIRS[name]())


@pytest.mark.parametrize("name", sorted(XFAIL_PAIRS))
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: generalized cancellation assumes its middle and its "
    "result lie in A and B"))
def test_hnn_and_amalgam_presentations_agree(name):
    check_pair(XFAIL_PAIRS[name]())


@st.composite
def repeated_expressions(draw, alphabet):
    """3-4 factors over one variable fewer, so some variable repeats;
    periods of 1-2 letters, tails of 0-1, as in the solve-repeated
    benchmark."""
    def word(lo, hi):
        return tuple(draw(st.lists(st.sampled_from(alphabet),
                                   min_size=lo, max_size=hi)))

    n = draw(st.integers(3, 4))
    names = draw(st.lists(st.sampled_from("xyz"[:n - 1]),
                          min_size=n, max_size=n))
    return ExponentExpression([(word(1, 2), var, word(0, 1)) for var in names])


@pytest.mark.parametrize("desc, letters, minimum", [
    (Z_IN_Z, "st", 27), (Z2_Z2_OVER_Z, "sa", 27), (S3_OVER_FLIP, "fr", 30),
], ids=["z-in-z", "z2-z2-over-z", "s3-over-flip"])
def test_repeated_variable_draws_match_brute_force(desc, letters, minimum):
    backend = build_backend(desc)
    alphabet = sorted(x for a in letters for x in (a, a + "'"))
    answered = []

    @seed(DRAW_SEED)
    @settings(max_examples=30, deadline=None, database=None)
    @given(repeated_expressions(alphabet))
    def draw_and_check(e):
        try:
            sols = solve_exponent(backend, e)
        except BudgetExceededError:
            return
        report = compare(backend, e, sols, BOX[len(e.variables)])
        assert report["ok"], report["mismatches"][:5]
        answered.append(e)

    draw_and_check()
    assert len(answered) >= minimum, len(answered)
