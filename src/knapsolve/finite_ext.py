"""Finite extensions via coset-pushing tables.

A finite extension H of a group G is described by coset representatives
C (containing 1) and a total rewriting table (c, a) -> (w, d) with
c a = w d in H, where w is a word over G's generators and d in C.  Any
prefix of a word over H's generators then normalizes to (G-word, coset),
which decides the word problem whenever G's is decidable.

Exponent equations reduce to G: the coset sequence under powers of a
period u follows the orbit of the map f(c) = "coset of c u", which is
eventually periodic with entry and period at most l = |C|.  Guessing,
per factor, either a concrete exponent below l or the orbit residue r
turns e = 1 into an exponent equation over G; the exponent change
sigma(x) = k x' + (l + r) maps G's solution set back through an affine
substitution.
"""

from .errors import InputError
from .groups import GroupBackend, backend_of, solve_exponent
from .reduction import SEARCH_STATES_CAP, direct_sum_all, solve_local
from .semilinear import LinearSet, SemilinearSet
from .words import invert_letter

#: name of the identity coset representative
IDENTITY_COSET = "1"


class FiniteExtBackend(GroupBackend):
    """Finite extension of a subgroup backend by a coset-pushing table.

    cosets is a list of representative names containing "1"; rules is an
    iterable of (c, a, w, d) rows covering every pair of a coset and a
    generator of the extension.
    """

    def __init__(self, subgroup, cosets, rules):
        self.subgroup = subgroup
        self.cosets = tuple(cosets)
        if IDENTITY_COSET not in self.cosets:
            raise InputError('cosets must contain the identity coset "1"')
        if len(set(self.cosets)) != len(self.cosets):
            raise InputError("duplicate coset representative")
        coset_letters = set()
        for c in self.cosets:
            if c == IDENTITY_COSET:
                continue
            coset_letters.add(c)
            coset_letters.add(invert_letter(c))
        self.alphabet = frozenset(subgroup.alphabet) | coset_letters
        self.rules = {}
        rows = [
            (r["c"], r["a"], r["w"], r["d"]) if isinstance(r, dict) else r
            for r in rules
        ]
        for c, a, w, d in rows:
            if c not in self.cosets or d not in self.cosets:
                raise InputError(f"rule references unknown coset {c!r} or {d!r}")
            if a not in self.alphabet:
                raise InputError(f"rule letter {a!r} not in extension alphabet")
            w = tuple(w)
            for letter in w:
                if letter not in subgroup.alphabet:
                    raise InputError(
                        f"rewritten word letter {letter!r} not in subgroup"
                    )
            if (c, a) in self.rules:
                raise InputError(f"duplicate rule for {(c, a)!r}")
            self.rules[(c, a)] = (w, d)
        for c in self.cosets:
            for a in sorted(self.alphabet):
                if (c, a) not in self.rules:
                    raise InputError(f"rewriting table misses {(c, a)!r}")
        for a in subgroup.alphabet:
            _w, d = self.rules[(IDENTITY_COSET, a)]
            if d != IDENTITY_COSET:
                raise InputError("subgroup letters must fix the identity coset")

    def push(self, coset, word):
        """(g, d) with coset * word = g * d in H and g over G's generators."""
        out = []
        for a in word:
            w, coset = self.rules[(coset, a)]
            out.extend(w)
        return tuple(out), coset

    def word_problem(self, word):
        return fe_word_problem(self, word)

    def solve_knapsack(self, e, limits):
        """Guess per factor and solve in the subgroup (module docstring)."""
        limits.open("branches", "pruned")
        l = len(self.cosets)
        branches = [_Branch(IDENTITY_COSET, (), [], {}, {})]
        for period, var, tail in e.factors:
            nxt = []
            for branch in branches:
                for j in range(l):
                    child = branch.child()
                    g, child.coset = self.push(child.coset, period * j + tail)
                    child.emit_const(g)
                    child.points[var] = j
                    nxt.append(child)
                orbit = coset_orbit(self, branch.coset, period)
                entry = orbit.entry
                g_enter, c_enter = self.push(branch.coset, period * orbit.l)
                assert c_enter == entry, "orbit entry certification failed"
                g_cycle, c_cycle = self.push(entry, period * orbit.k)
                assert c_cycle == entry, "orbit cycle certification failed"
                for r in range(orbit.k):
                    child = branch.child()
                    child.emit_const(g_enter)
                    g_res, child.coset = self.push(entry, period * r + tail)
                    child.factors_g.append((g_cycle, var, g_res))
                    child.substitutions[var] = (orbit.k, orbit.l + r)
                    nxt.append(child)
            branches = nxt

        names = e.variables
        total = SemilinearSet.empty(names)
        for branch in branches:
            limits.count("branches")
            if branch.coset != IDENTITY_COSET:
                limits.count("pruned")
                continue
            solved = _branch_solutions(self.subgroup, names, branch, limits)
            if solved is None:
                limits.count("pruned")
                continue
            total = total.union(solved)
        return total


def fe_word_problem(desc, word):
    """w = 1 in H: the pushed G-word is 1 in G and the final coset is 1."""
    backend = backend_of(desc, FiniteExtBackend)
    backend.check_word(word)
    g, coset = backend.push(IDENTITY_COSET, word)
    return coset == IDENTITY_COSET and backend.subgroup.word_problem(g)


class CosetOrbit:
    """Orbit of d under f(c) = coset of c u; eventually periodic.

    values lists f^0(d), ..., f^{2l-1}(d) with l = |C|; the orbit enters
    its cycle within l steps, so entry = f^l(d) lies on the cycle and k
    is the cycle length.
    """

    def __init__(self, values, l, k):
        self.values = tuple(values)
        self.l = l
        self.k = k
        self.entry = self.values[l]


def coset_orbit(desc, d, u):
    """Iterate the coset map of u from d until one full cycle past l."""
    backend = backend_of(desc, FiniteExtBackend)
    if d not in backend.cosets:
        raise InputError(f"unknown coset {d!r}")
    backend.check_word(u)
    l = len(backend.cosets)
    values = [d]
    for _ in range(2 * l):
        _g, d = backend.push(values[-1], u)
        values.append(d)
    k = next(k for k in range(1, l + 1) if values[l + k] == values[l])
    return CosetOrbit(values[: 2 * l], l, k)


class _Branch:
    """Partial rewriting of the equation into the subgroup."""

    __slots__ = ("coset", "leading", "factors_g", "points", "substitutions")

    def __init__(self, coset, leading, factors_g, points, substitutions):
        self.coset = coset
        self.leading = leading
        self.factors_g = factors_g
        self.points = points
        self.substitutions = substitutions

    def emit_const(self, word):
        if self.factors_g:
            p0, v0, t0 = self.factors_g[-1]
            self.factors_g[-1] = (p0, v0, t0 + tuple(word))
        else:
            self.leading = self.leading + tuple(word)

    def child(self):
        return _Branch(
            self.coset, self.leading, list(self.factors_g),
            dict(self.points), dict(self.substitutions),
        )


def solve_exponent_finite_ext(desc, e, splits_budget=None,
                              states_budget=SEARCH_STATES_CAP,
                              diagnostics=None):
    """Solution set of e = 1 over the finite extension described by desc."""
    return solve_exponent(backend_of(desc, FiniteExtBackend), e,
                          splits_budget, states_budget, diagnostics)


def _branch_solutions(sub, names, branch, limits):
    """SemilinearSet over all equation variables for one guess, or None."""
    # a factor whose cycle word is syntactically empty puts no subgroup
    # constraint on its variable; its tail joins the constants around it
    entries = [("e", branch.leading)]
    free = []
    for p, var, t in branch.factors_g:
        if p:
            entries.append(("p", var, p))
        else:
            free.append(var)
        entries.append(("e", t))

    pieces = []
    if len(free) < len(branch.factors_g):
        sols = solve_local(sub, entries, limits)
        if sols.is_empty_representation():
            return None
        coeffs = {v: branch.substitutions[v][0] for v in sols.vars}
        offsets = {v: branch.substitutions[v][1] for v in sols.vars}
        pieces.append(sols.affine_substitute(coeffs, offsets))
    elif not sub.word_problem(sum((word for _e, word in entries), ())):
        return None
    for var in free:
        k, off = branch.substitutions[var]
        pieces.append(SemilinearSet((var,), [LinearSet((off,), [(k,)])]))
    for var, j in sorted(branch.points.items()):
        pieces.append(SemilinearSet.point((var,), (j,)))
    return direct_sum_all(pieces, names)
