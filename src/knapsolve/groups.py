"""Group backends, the element protocol and solve_exponent for any group.

A backend wraps a concretely described group and exposes three things:
the generator alphabet (closed under formal inverses), the word problem
(w =? 1), and solve(e, limits), which answers any expression with a
SemilinearSet under the solve's reduction.Limits, its budgets and
report, and hands that object on to every nested solve.  The default
solve renames repeated variables apart (knapsackify), calls the leaf
hook solve_knapsack, for an expression in which every variable occurs
once, and keeps the points on the diagonal (SemilinearSet.on_diagonal);
graph products, HNN-extensions and amalgams override solve with the
reduction search, and finite extensions with a guess walk that knows
which variables are copies of one.  solve_exponent() is the one solve
entry for every group, given as a backend or its description, and
builds the Limits; nested solves call solve.

Base backends: the infinite cyclic group (one generator, exponent sums)
and finite groups given by a Cayley table.  Composite backends (graph
products, free products, HNN-extensions, amalgams, finite extensions)
live in their own modules and are wired up here by build_backend().
"""

import itertools

from .errors import InputError
from .expr import knapsackify
from .reduction import SEARCH_STATES_CAP, Limits
from .semilinear import (
    DiophSystem, LinearSet, SemilinearSet, solve_dioph_nonneg,
)
from .words import invert_letter


class GroupBackend:
    """Interface shared by every group backend.

    A backend with a canonical element form implements the element
    protocol, identity_elem and the elem_* methods: elements are
    hashable, equal exactly when equal in the group, and word_problem
    and norm follow from them.  Other backends leave identity_elem
    None.  Graph products, HNN-extensions and amalgams take only
    backends with elements as vertex, base or factor groups, and use
    only this protocol and solve of them.
    """

    #: frozenset of generator letters, closed under invert_letter
    alphabet = frozenset()
    #: the identity element, None without the element protocol
    identity_elem = None

    def elem_from_word(self, word):
        raise NotImplementedError

    def elem_mul(self, a, b):
        raise NotImplementedError

    def elem_inv(self, a):
        raise NotImplementedError

    def elem_word(self, a):
        """A geodesic word representing a."""
        raise NotImplementedError

    def elem_norm(self, a):
        """Geodesic length of a."""
        raise NotImplementedError

    def elem_sort_key(self, a):
        """Key of a total order on elements."""
        raise NotImplementedError

    def word_problem(self, word):
        return self.elem_from_word(word) == self.identity_elem

    def norm(self, word):
        """Geodesic length of the element represented by word."""
        return self.elem_norm(self.elem_from_word(word))

    def solve(self, e, limits):
        """Solution set of e = 1; variables may repeat."""
        if len(e.variables) == len(e.factors):
            return self.solve_knapsack(e, limits)
        e_prime, K = knapsackify(e)
        sols = self.solve_knapsack(e_prime, limits)
        with limits.dioph() as solver:
            return sols.on_diagonal(K, solver).restrict(e.variables)

    def solve_knapsack(self, e, limits):
        """Solution set of e = 1; every variable of e occurs exactly once."""
        raise NotImplementedError

    def check_word(self, word):
        for a in word:
            if a not in self.alphabet:
                raise InputError(f"letter {a!r} not in group alphabet")


def require_elements(backend, where):
    """backend, or an InputError if it has no canonical element form."""
    if backend.identity_elem is None:
        raise InputError(
            f"{where}: {type(backend).__name__} has no canonical element "
            "form, so it cannot be a vertex, base or amalgam factor"
        )
    return backend


def solve_exponent(group, e, splits_budget=None,
                   states_budget=SEARCH_STATES_CAP, diagnostics=None):
    """Full solution set of e = 1 over group, a backend or its description.

    splits_budget caps the splits of each reduction search the solve
    runs, nested ones included, and states_budget the states of all of
    them together; diagnostics, a dict, collects the report, whose keys
    are reduction.REPORT_KEYS.  A spent budget raises BudgetExceededError.
    """
    backend = group if isinstance(group, GroupBackend) else build_backend(group)
    for period, _var, tail in e.factors:
        backend.check_word(period)
        backend.check_word(tail)
    return backend.solve(e, Limits(splits_budget, states_budget, diagnostics))


# ---------------------------------------------------------------------------
# Infinite cyclic group


class IntegerGroup(GroupBackend):
    """The group of integers, one generator letter (default "t")."""

    identity_elem = 0

    def __init__(self, generator="t"):
        if generator.endswith("'"):
            raise InputError("generator name may not end with an apostrophe")
        self.generator = generator
        self.alphabet = frozenset({generator, invert_letter(generator)})

    def elem_from_word(self, word):
        self.check_word(word)
        return sum(-1 if a.endswith("'") else 1 for a in word)

    def elem_mul(self, a, b):
        return a + b

    def elem_inv(self, a):
        return -a

    def elem_word(self, a):
        letter = self.generator if a >= 0 else invert_letter(self.generator)
        return (letter,) * abs(a)

    def elem_norm(self, a):
        return abs(a)

    def elem_sort_key(self, a):
        return (abs(a), a)

    def solve_knapsack(self, e, limits):
        coeffs = [self.elem_from_word(p) for p, _v, _t in e.factors]
        const = sum(self.elem_from_word(t) for _p, _v, t in e.factors)
        sys = DiophSystem([tuple(coeffs)], (-const,))
        with limits.dioph() as solver:
            return solve_dioph_nonneg(sys, e.variables, solver)


# ---------------------------------------------------------------------------
# Finite groups by Cayley table


class FiniteGroup(GroupBackend):
    """A finite group given by its multiplication table.

    Elements are opaque indices into the element-name list; the table is
    authoritative.  Generator letters map to elements; inverse letters
    map to the inverse elements automatically.
    """

    def __init__(self, element_names, table, generators):
        n = len(element_names)
        if len(set(element_names)) != n:
            raise InputError("FiniteGroup: duplicate element names")
        if len(table) != n or any(len(row) != n for row in table):
            raise InputError("FiniteGroup: table is not n x n")
        for i, row in enumerate(table):
            for j, v in enumerate(row):
                if not 0 <= v < n:
                    raise InputError(
                        f"FiniteGroup: table entry ({i},{j}) out of range"
                    )
        self.names = tuple(element_names)
        self.table = tuple(tuple(row) for row in table)
        # identity: the unique two-sided neutral element
        ids = [
            e
            for e in range(n)
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n))
        ]
        if len(ids) != 1:
            raise InputError("FiniteGroup: no unique identity element")
        one = self.identity_elem = ids[0]
        # inverses
        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if self.table[x][y] == one and self.table[y][x] == one:
                    inv[x] = y
        if any(v is None for v in inv):
            raise InputError("FiniteGroup: some element has no inverse")
        self.inverse = tuple(inv)
        # associativity spot-check (full check is cubic; fine at this size)
        if n <= 12:
            triples = itertools.product(range(n), repeat=3)
        else:
            triples = itertools.islice(
                itertools.product(range(n), repeat=3), 2000
            )
        for a, b, c in triples:
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise InputError(
                    f"FiniteGroup: associativity fails at ({a},{b},{c})"
                )
        self.generator_map = {}
        for letter, idx in generators.items():
            if letter.endswith("'"):
                raise InputError("generator name may not end with an apostrophe")
            if not 0 <= idx < n:
                raise InputError(f"FiniteGroup: generator {letter!r} out of range")
            self.generator_map[letter] = idx
            self.generator_map[invert_letter(letter)] = self.inverse[idx]
        self.alphabet = frozenset(self.generator_map)
        # a geodesic word for every reachable element, by breadth-first search
        geo = {self.identity_elem: ()}
        frontier = [self.identity_elem]
        while frontier:
            nxt = []
            for x in frontier:
                for letter, g in self.generator_map.items():
                    y = self.table[x][g]
                    if y not in geo:
                        geo[y] = geo[x] + (letter,)
                        nxt.append(y)
            frontier = nxt
        self.geodesic = geo

    def elem_from_word(self, word):
        self.check_word(word)
        x = self.identity_elem
        for a in word:
            x = self.table[x][self.generator_map[a]]
        return x

    def elem_mul(self, a, b):
        return self.table[a][b]

    def elem_inv(self, a):
        return self.inverse[a]

    def elem_word(self, a):
        if a not in self.geodesic:
            raise InputError("element not generated by the given generators")
        return self.geodesic[a]

    def elem_norm(self, a):
        return len(self.elem_word(a))

    def elem_sort_key(self, a):
        return a

    def order_of(self, x):
        k = 1
        y = x
        while y != self.identity_elem:
            y = self.table[y][x]
            k += 1
        return k

    def solve_knapsack(self, e, limits):
        """Enumerate residue tuples modulo element orders."""
        gs = [self.elem_from_word(p) for p, _v, _t in e.factors]
        tails = [self.elem_from_word(t) for _p, _v, t in e.factors]
        orders = [self.order_of(g) for g in gs]
        var_names = e.variables
        comps = []
        diag = [
            tuple(orders[i] if j == i else 0 for j in range(len(orders)))
            for i in range(len(orders))
        ]
        for residues in itertools.product(*[range(o) for o in orders]):
            x = self.identity_elem
            for g, r, tail in zip(gs, residues, tails):
                for _ in range(r):
                    x = self.table[x][g]
                x = self.table[x][tail]
            if x == self.identity_elem:
                comps.append(LinearSet(residues, diag))
        return SemilinearSet(var_names, comps)


def cyclic_group(n, letter="a"):
    """Z/n with one generator letter; convenience constructor."""
    names = [f"g{i}" for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(names, table, {letter: 1 % n})


# ---------------------------------------------------------------------------
# GroupDesc JSON


def build_backend(desc):
    """Build a backend from a constructor-tagged description tree.

    The tree is validated in the same walk: a malformed node ends in an
    InputError whose message starts with the path to it, such as
    $.children[1].order.
    """
    return _build(desc, "$")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_letter(v):
    return isinstance(v, str) and v != ""


def _is_seq(v):
    return isinstance(v, (list, tuple))


def _seq_of(check):
    return lambda v: _is_seq(v) and all(map(check, v))


_is_word = _seq_of(_is_letter)


def _is_rule(row):
    if isinstance(row, dict):
        row = [row.get(key) for key in ("c", "a", "w", "d")]
    return (_is_seq(row) and len(row) == 4 and _is_word(row[2])
            and all(map(_is_letter, (row[0], row[1], row[3]))))


def _child(desc, path, elements=True):
    """The backend of a sub-description, with elements unless told not."""
    backend = _build(desc, path)
    return require_elements(backend, path) if elements else backend


def _build(desc, path):
    from .finite_ext import FiniteExtBackend
    from .gp_solver import GraphProductBackend
    from .hnn import AmalgamBackend, HnnBackend

    if not isinstance(desc, dict) or "type" not in desc:
        raise InputError(f"{path}: group description must be an object with a 'type'")
    kind = desc["type"]

    def field(key, check, what, default=None):
        value = desc.get(key, default)
        if value is None or key in desc and not check(value):
            got = f"got {value!r}" if key in desc else "found none"
            raise InputError(f"{path}.{key}: expected {what}, {got}")
        return value

    def words(key):
        return field(key, _seq_of(_is_word), "a list of words")

    def child(key, elements=True):
        return _child(field(key, lambda v: True, "a group description"),
                      f"{path}.{key}", elements)

    def letter(key, default):
        return field(key, _is_letter, "a letter", default)

    if kind == "IntegerGroup":
        make, args = IntegerGroup, (letter("generator", "t"),)
    elif kind == "FiniteGroup":
        make, args = FiniteGroup, (
            field("elements", _seq_of(lambda v: isinstance(v, (str, int))),
                  "a list of element names"),
            field("table", _seq_of(_seq_of(_is_int)), "a list of integer rows"),
            field("generators", lambda v: isinstance(v, dict) and all(
                _is_letter(k) and _is_int(i) for k, i in v.items()
            ), "an object from letters to element indices"),
        )
    elif kind == "CyclicGroup":
        make, args = cyclic_group, (
            field("order", lambda v: _is_int(v) and v >= 1, "a positive integer"),
            letter("generator", "a"),
        )
    elif kind in ("GraphProduct", "FreeProduct"):
        key = "vertices" if "vertices" in desc else "children"
        children = field(key, lambda v: _is_seq(v) and len(v) > 0,
                         "a nonempty list of group descriptions")
        edges = [] if kind == "FreeProduct" else field(
            "edges", _seq_of(lambda e: _seq_of(_is_int)(e) and len(e) == 2),
            "a list of vertex index pairs", [],
        )
        make, args = GraphProductBackend, (
            [_child(c, f"{path}.{key}[{k}]") for k, c in enumerate(children)],
            edges,
        )
    elif kind == "Hnn":
        make, args = HnnBackend, (
            child("base"), letter("stable_letter", "t"), words("A"), words("B"),
        )
    elif kind == "Amalgam":
        make, args = AmalgamBackend, (
            child("left"), child("right"), words("phi1"), words("phi2"),
            letter("stable_letter", "t"),
        )
    elif kind == "FiniteExt":
        make, args = FiniteExtBackend, (
            child("subgroup", elements=False),
            field("cosets", _seq_of(_is_letter), "a list of coset names"),
            field("rules", _seq_of(_is_rule), "a list of (c, a, w, d) rows"),
        )
    else:
        raise InputError(f"{path}.type: unknown group constructor {kind!r}")
    try:
        return make(*args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


__all__ = [
    "GroupBackend",
    "IntegerGroup",
    "FiniteGroup",
    "cyclic_group",
    "build_backend",
    "require_elements",
    "solve_exponent",
]
