"""Instance corpora of the three benchmark workloads.

Each corpus is fixed: it is drawn from generators seeded by CORPUS_SEED,
so every run, every seed and every commit sees the same (group,
expression) pairs, and sorted solve outputs can be compared byte for
byte.  The run seed only fixes the order in which the instances run.
The group descriptions mirror CORPUS in tests/test_acceptance.py; they
are copied here so that a change to the tests cannot change the
benchmark's inputs.
"""

import random

CORPUS_SEED = 2026

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


def _z(order, gen):
    return {"type": "CyclicGroup", "order": order, "generator": gen}


#: name -> (description, generator letters without inverses)
GROUPS = {
    "integers": ({"type": "IntegerGroup", "generator": "t"}, "t"),
    "cyclic-2": (_z(2, "a"), "a"),
    "cyclic-3": (_z(3, "b"), "b"),
    "direct-z2-z2": ({
        "type": "GraphProduct",
        "vertices": [_z(2, "a"), _z(2, "b")],
        "edges": [[0, 1]],
    }, "ab"),
    "free-z2-z3": ({
        "type": "FreeProduct",
        "children": [_z(2, "a"), _z(3, "b")],
    }, "ab"),
    "path-p3": ({
        "type": "GraphProduct",
        "vertices": [_z(2, "a"), _z(2, "b"), _z(2, "c")],
        "edges": [[0, 1], [1, 2]],
    }, "abc"),
    "hnn-z2": ({
        "type": "Hnn",
        "base": _z(2, "a"),
        "stable_letter": "t",
        "A": [[], ["a"]],
        "B": [[], ["a"]],
    }, "at"),
    "amalgam-z4-z2-z4": ({
        "type": "Amalgam",
        "left": _z(4, "a"),
        "right": _z(4, "b"),
        "phi1": [["a", "a"]],
        "phi2": [["b", "b"]],
        "stable_letter": "t",
    }, "ab"),
    "z-in-z-index-2": (Z_IN_Z, "st"),
}

#: the hard instances named in ROADMAP item 1 (no answer, or a minute)
HARD = [
    ("free-z2-z3", "(a b)^x (b' a)^y (a b)^z"),
    ("path-p3", "(a b c)^x (c' b' a')^y"),
    ("path-p3", "(a c)^x b (a c)^y b"),
]

REPEATED_GROUPS = ("integers", "cyclic-3", "direct-z2-z2", "z-in-z-index-2")

#: oracle box per number of distinct variables, for the solve gate
GATE_BOX = {1: 12, 2: 6, 3: 3}
#: box of the replayed verify calls (as in acceptance criterion 1)
VERIFY_BOX = 12


class Instance:
    """One (group, expression) input and the box its answer is checked on."""

    __slots__ = ("key", "group", "text", "degree", "box")

    def __init__(self, key, group, text, degree, box):
        self.key = key
        self.group = group
        self.text = text
        self.degree = degree
        self.box = box


def _alphabet(group):
    letters = GROUPS[group][1]
    return [x for a in letters for x in (a, a + "'")]


def _word(rng, letters, lo, hi):
    return tuple(rng.choice(letters) for _ in range(rng.randrange(lo, hi + 1)))


def _text(factors):
    parts = []
    for period, var, tail in factors:
        parts.append("(" + " ".join(period) + ")^" + var)
        parts.extend(tail)
    return " ".join(parts)


def distinct_vars(group, degree, count):
    """count expressions of the given degree, one variable per factor.

    Periods have 1-3 letters, tails 0-2, and the whole expression at most
    8 letters, as in acceptance criterion 1.
    """
    rng = random.Random(f"{CORPUS_SEED}:{group}:{degree}")
    letters = _alphabet(group)
    out = []
    while len(out) < count:
        factors = [
            (_word(rng, letters, 1, 3), "xyz"[k], _word(rng, letters, 0, 2))
            for k in range(degree)
        ]
        if sum(len(p) + len(t) for p, _v, t in factors) <= 8:
            out.append(_text(factors))
    return out


def repeated_vars(group, count):
    """count expressions with 4-5 factors over x, y, z, each variable used.

    Periods have 1-2 letters and tails 0-1, so the work is in the
    intersection with the diagonal of the repeated variables rather
    than in the reduction search.
    """
    rng = random.Random(f"{CORPUS_SEED}:{group}:repeated")
    letters = _alphabet(group)
    out = []
    while len(out) < count:
        names = [rng.choice("xyz") for _ in range(rng.choice((4, 5)))]
        if len(set(names)) < 3:
            continue
        out.append(_text([
            (_word(rng, letters, 1, 2), v, _word(rng, letters, 0, 1))
            for v in names
        ]))
    return out


def solve_corpus(per_stratum):
    """Nine groups x degrees 1-3, per_stratum each, plus the hard three."""
    out = []
    for group in GROUPS:
        for degree in (1, 2, 3):
            for i, text in enumerate(distinct_vars(group, degree, per_stratum)):
                out.append(Instance(
                    f"{group}/d{degree}/{i}", group, text, degree,
                    GATE_BOX[degree],
                ))
    for i, (group, text) in enumerate(HARD):
        degree = text.count("^")
        out.append(Instance(
            f"hard/{i}", group, text, degree, GATE_BOX[min(degree, 3)]
        ))
    return out


def solve_repeated(per_group):
    out = []
    for group in REPEATED_GROUPS:
        for i, text in enumerate(repeated_vars(group, per_group)):
            out.append(Instance(f"{group}/rep/{i}", group, text, 3, GATE_BOX[3]))
    return out


def verify_replay(per_stratum):
    """Nine groups x degrees 1-2, replayed on the box of criterion 1."""
    out = []
    for group in GROUPS:
        for degree in (1, 2):
            for i, text in enumerate(distinct_vars(group, degree, per_stratum)):
                out.append(Instance(
                    f"{group}/d{degree}/{i}", group, text, degree, VERIFY_BOX
                ))
    return out


def run_order(instances, seed):
    """The seeded order in which a run visits the instances."""
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    return [instances[i] for i in order]
