"""Finite extensions via coset-pushing tables.

A finite extension H of a group G is described by coset representatives
C (containing 1) and a total rewriting table (c, a) -> (w, d) with
c a = w d in H, where w is a word over G's generators and d in C.  Any
prefix of a word over H's generators then normalizes to (G-word, coset),
which decides the word problem whenever G's is decidable.

Exponent equations reduce to G: the coset sequence under powers of a
period u follows the orbit of the map f(c) = "coset of c u", which is
eventually periodic with entry and period at most l = |C|.  So every
exponent x is either a concrete j < l or l + r + k x' with k the cycle
length and r < k.  One recursive walk over e's factors guesses this
for each factor in turn and carries (coset, subgroup entries, shifts),
where shifts[x] = (k, off) means x = k x' + off and a concrete guess is
the shift (0, j).  At each leaf whose coset is 1, one solve_local call
answers the remaining powers in G (the word problem does, when none is
left), affine_substitute maps that set back through the shifts, and a
variable without a power in G gets the linear set off + k N, a point
when k = 0.  The leaves' components make up one set, the solution set.

The walk is the leaf hook solve_knapsack of GroupBackend.solve, which
renames a repeated variable apart (knapsackify) into copies and cuts the
walk's set down to the diagonal of the copies.  It hands the hook the
copy classes, so a leaf where two copies of one variable carry shifts
with disjoint progressions (shifts_meet) is cut before its subgroup
solve: none of its points lies on the diagonal.
All the Diophantine systems of a solve, in the leaves and the diagonal,
share the solve's one DiophSolver (reduction.Limits).
"""

import itertools
import math

from .errors import InputError
from .groups import GroupBackend, solve_exponent
from .reduction import direct_sum_all, solve_local
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
        """w = 1 in H: the pushed G-word is 1 in G and the final coset is 1."""
        self.check_word(word)
        g, coset = self.push(IDENTITY_COSET, word)
        return coset == IDENTITY_COSET and self.subgroup.word_problem(g)

    def _orbit(self, d, u):
        """(entry, k) of the orbit of d under f(c) = coset of c u.

        The orbit enters its cycle within l = |C| steps, so entry = f^l(d)
        lies on the cycle, and k is the cycle's length.
        """
        for _ in self.cosets:
            _g, d = self.push(d, u)
        entry = d
        d, k = self.push(d, u)[1], 1
        while d != entry:
            d, k = self.push(d, u)[1], k + 1
        return entry, k

    def _guesses(self, factors, coset, entries, shifts):
        """Yield (coset, entries, shifts) for every guess on the factors.

        entries spell the equation so far in the subgroup, as solve_local
        takes them; shifts[var] = (k, off) stands for var = k var' + off,
        with k = 0 for a concrete exponent off.
        """
        if not factors:
            yield coset, entries, shifts
            return
        (period, var, tail), rest = factors[0], factors[1:]
        l = len(self.cosets)
        for j in range(l):
            g, d = self.push(coset, period * j + tail)
            yield from self._guesses(rest, d, entries + (("e", g),),
                                     {**shifts, var: (0, j)})
        entry, k = self._orbit(coset, period)
        g_enter, c_enter = self.push(coset, period * l)
        assert c_enter == entry, "orbit entry certification failed"
        g_cycle, c_cycle = self.push(entry, period * k)
        assert c_cycle == entry, "orbit cycle certification failed"
        # a cycle word that is syntactically empty puts no subgroup
        # constraint on var: its shift alone describes it
        power = (("p", var, g_cycle),) if g_cycle else ()
        for r in range(k):
            g_res, d = self.push(entry, period * r + tail)
            yield from self._guesses(
                rest, d, entries + (("e", g_enter),) + power + (("e", g_res),),
                {**shifts, var: (k, l + r)})

    def solve_knapsack(self, e, limits, classes):
        """The union over the leaves of the guess walk (module docstring);
        a leaf is cut when two copies of one class carry shifts that
        cannot meet."""
        names = e.variables
        comps = []
        for coset, entries, shifts in self._guesses(
                e.factors, IDENTITY_COSET, (), {}):
            limits.count("branches")
            if not all(shifts_meet(shifts[a], shifts[b]) for copies in classes
                       for a, b in itertools.combinations(copies, 2)):
                sols = SemilinearSet.empty(())
            elif coset == IDENTITY_COSET and any(x[0] == "p" for x in entries):
                sols = solve_local(self.subgroup, entries, limits)
            elif coset == IDENTITY_COSET and self.subgroup.word_problem(
                    sum((x[1] for x in entries), ())):
                # no power left: the set over no variables that holds
                # the empty point, the unit of direct_sum
                sols = SemilinearSet.universe(())
            else:
                sols = SemilinearSet.empty(())
            if sols.is_empty_representation():
                limits.count("pruned")
                continue
            pieces = [sols.affine_substitute(
                {v: shifts[v][0] for v in sols.vars},
                {v: shifts[v][1] for v in sols.vars})]
            pieces += [SemilinearSet((v,), [LinearSet((off,), [(k,)])])
                       for v, (k, off) in shifts.items() if v not in sols.vars]
            comps += direct_sum_all(pieces, names).components
        # SemilinearSet keeps the first of equal components, so the order
        # is that of a union taken leaf by leaf
        return SemilinearSet(names, comps)


def shifts_meet(a, b):
    """Whether two shifts (k, off), each the set off + k N, share a point.

    k = 0 is the point off.  A point meets a progression when it is at
    least the offset and congruent to it; two progressions meet when
    their offsets are congruent modulo the gcd of their ks (CRT), so a
    class of shifts shares a point exactly when each pair does.
    """
    (k1, off1), (k2, off2) = sorted((a, b))
    if k2 == 0:
        return off1 == off2
    if k1 == 0:
        return off1 >= off2 and (off1 - off2) % k2 == 0
    return (off1 - off2) % math.gcd(k1, k2) == 0


#: the old per-constructor name, kept while perfbench/worker.py
#: dispatches on it (ROADMAP item 10)
solve_exponent_finite_ext = solve_exponent
