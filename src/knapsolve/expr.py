"""Exponent expressions u1^{x1} v1 ... uk^{xk} vk.

An exponent expression alternates periods-with-variables and constant
tail words.  Variables may repeat; an expression where every variable
occurs exactly once is a knapsack expression.  The reduction solvers
rename repeated occurrences apart in reduction.Scheme.preprocess, with
Renaming, and tie the copies together with its magnitude-one
diagonal.  knapsackify() does the same to a whole expression; no
solver calls it, and it stays while perfbench/tracer.py names it
(ROADMAP item 10).

Text syntax (also used by the CLI):

    (a b)^x c (a)^y        periods in parentheses, ^variable
    t^x t'^4               single letters may drop the parentheses;
                           an integer exponent denotes a repeated constant

Letters are identifiers, inverse letters carry a trailing apostrophe,
letters are separated by whitespace inside parentheses.
"""

import re

from .errors import InputError
from .semilinear import LinearSet, SemilinearSet
from .words import invert_word

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|\^(?P<expvar>[A-Za-z_][A-Za-z0-9_]*)"
    r"|\^(?P<expnum>[0-9]+)|(?P<letter>[A-Za-z_][A-Za-z0-9_]*'?)"
    r"|(?P<bad>\S))"
)


class ExponentExpression:
    """Immutable alternating sequence of (period, variable, tail) factors."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(
            (tuple(period), var, tuple(tail)) for period, var, tail in factors
        )
        if not factors:
            raise InputError("exponent expression needs at least one factor")
        for period, var, _tail in factors:
            if not period:
                raise InputError("empty period in exponent expression")
            if not var:
                raise InputError("missing variable name")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("ExponentExpression is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ExponentExpression)
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"ExponentExpression({list(self.factors)})"

    @property
    def variables(self):
        """Distinct variables in order of first occurrence (the set X_e)."""
        return tuple(dict.fromkeys(var for _p, var, _t in self.factors))

    def degree(self):
        """Number of powers; repeated variables count separately."""
        return len(self.factors)

    def length(self):
        return sum(len(p) + len(t) for p, _v, t in self.factors)

    def evaluate(self, valuation):
        """The word u1^{sigma(x1)} v1 ... for a total valuation sigma."""
        word = []
        for period, var, tail in self.factors:
            if var not in valuation:
                raise InputError(f"valuation missing variable {var!r}")
            word.extend(period * int(valuation[var]))
            word.extend(tail)
        return tuple(word)


def normalize(leading, factors):
    """Fold a leading constant word into an ExponentExpression.

    Conjugating by the leading constant v0 preserves the solution set
    (v0^{-1} e v0 starts with a period and ends with the old tails
    followed by v0), and for e = v0 u1^{x1} ... the conjugation just
    moves v0 to the very end.
    """
    factors = list(factors)
    if not factors:
        raise InputError("expression without any power")
    if leading:
        period, var, tail = factors[-1]
        factors[-1] = (period, var, tuple(tail) + tuple(leading))
    return ExponentExpression(factors)


def expr_from_entries(entries):
    """The expression of a product of constants and powers.

    entries are ("p", var, period) powers period^var and, under any other
    tag, (tag, word) constants; a leading constant moves to the end as
    in normalize.
    """
    leading = ()
    factors = []
    for entry in entries:
        if entry[0] == "p":
            factors.append((entry[2], entry[1], ()))
        elif factors:
            period, var, tail = factors[-1]
            factors[-1] = (period, var, tail + tuple(entry[1]))
        else:
            leading += tuple(entry[1])
    return normalize(leading, factors)


def parse_expr(text):
    """Parse the textual expression syntax into an ExponentExpression."""
    items = []  # ("word", letters) | ("p", var, letters) | ("e", repeated letters)
    text = text.rstrip()
    pos = 0
    pending_group = None
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.group("bad"):
            where = m.start("bad") if m else pos
            raise InputError(f"parse error at position {where}: {text[where:where+10]!r}")
        pos = m.end()
        if m.group("lpar"):
            if pending_group is not None:
                raise InputError(f"nested '(' at position {m.start()}")
            pending_group = []
        elif m.group("rpar"):
            if pending_group is None:
                raise InputError(f"unmatched ')' at position {m.start()}")
            if not pending_group:
                raise InputError(f"empty group at position {m.start()}")
            items.append(("word", tuple(pending_group)))
            pending_group = None
        elif m.group("letter"):
            if pending_group is not None:
                pending_group.append(m.group("letter"))
            else:
                items.append(("word", (m.group("letter"),)))
        else:
            # an exponent; applies to the preceding word item
            if pending_group is not None or not items or items[-1][0] != "word":
                raise InputError(f"dangling '^' at position {m.start()}")
            word = items.pop()[1]
            if m.group("expvar"):
                items.append(("p", m.group("expvar"), word))
            else:
                try:
                    items.append(("e", word * int(m.group("expnum"))))
                except (ValueError, OverflowError, MemoryError):
                    # more digits than int() reads, or a word too long
                    raise InputError(
                        f"exponent too large at position {m.start()}") from None
    if pending_group is not None:
        raise InputError("unterminated '('")
    return expr_from_entries(items)


class Renaming:
    """Fresh names for repeated occurrences of variables, and their diagonal.

    fresh(var) names the next occurrence of var: var itself the first
    time, then var_2, var_3, ..., skipping every name already in use.
    diagonal() is the constraint K tying the copies of each variable
    together: zero base and one 0/1 period per variable, supported on
    its copies, the shape SemilinearSet.on_diagonal takes.
    """

    def __init__(self, variables):
        self.variables = tuple(variables)
        self.used = set(self.variables)
        self.counters = {}
        self.names = []
        self.copies = {}

    def fresh(self, var):
        n = self.counters.get(var, 0) + 1
        name = var if n == 1 else f"{var}_{n}"
        while n > 1 and name in self.used:
            n += 1
            name = f"{var}_{n}"
        self.counters[var] = n
        self.used.add(name)
        self.names.append(name)
        self.copies.setdefault(var, []).append(name)
        return name

    def diagonal(self):
        names = tuple(self.names)
        periods = []
        for var in self.variables:
            if var not in self.copies:
                continue
            members = set(self.copies[var])
            periods.append(tuple(1 if name in members else 0 for name in names))
        return SemilinearSet(names, [LinearSet((0,) * len(names), periods)])


def knapsackify(e):
    """Rename repeated variables apart; return (e', K).

    Every variable occurs once in e', and sol(e) = (K \\cap sol(e')) with
    the original variables restricted back afterwards; callers take it as
    sol(e').on_diagonal(K).  K is Renaming.diagonal, of magnitude one.
    """
    renaming = Renaming(e.variables)
    e_prime = ExponentExpression([
        (period, renaming.fresh(var), tail) for period, var, tail in e.factors
    ])
    return e_prime, renaming.diagonal()


__all__ = [
    "ExponentExpression",
    "normalize",
    "expr_from_entries",
    "parse_expr",
    "knapsackify",
    "invert_word",
]
