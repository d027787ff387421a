"""Finite extensions via coset-pushing tables.

A finite extension H of a group G is described by coset representatives
C (containing 1) and a total rewriting table (c, a) -> (w, d) with
c a = w d in H, where w is a word over G's generators and d in C.  Any
prefix of a word over H's generators then normalizes to (G-word, coset),
which decides the word problem whenever G's is decidable.

Exponent equations reduce to G: right multiplication by a period u
permutes the right cosets of G, so the coset sequence of u^x from any
coset d runs around a cycle of the map f(c) = "coset of c u" through d,
of some length k <= l = |C|.  So every exponent x is r + k x' with
r < k, and d u^(r + k x') = g^x' (d u^r) with d u^k = g d.  One
recursive walk over e's factors guesses r for each factor in turn and
carries (coset, subgroup entries, shifts), where shifts[x] = (k, r)
means x = k x' + r.  A variable that occurs again is still one
exponent: if its new cycle has length k and it is already shifted to
(k0, r0), the walk guesses x modulo L = lcm(k0, k), as R = r0 + k0 q
for q < L / k0, and rewrites each earlier power g^x' as
(g^(L/k0))^x'' g^q, which is exact as powers of one element commute.
At each leaf whose coset is 1, one solve_local call answers the
remaining powers in G (the word problem does, when none is left),
affine_substitute maps that set back through the shifts, and a
variable without a power in G gets the linear set r + k N.  The
leaves' components make up one set, the solution set.

FiniteExtBackend checks when it is built that its table describes a
group over G, which the walk takes for granted: every letter's move on
the cosets is undone by its inverse's, and G's letters stand for
themselves at coset 1.  All the Diophantine systems of a solve share
the solve's one DiophSolver (reduction.Limits).
"""

import math

from .errors import InputError
from .groups import GroupBackend, solve_exponent
from .reduction import direct_sum_all, solve_local
from .semilinear import LinearSet, SemilinearSet
from .words import invert_letter, invert_word

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
        self.identity_elem = subgroup.identity_elem, IDENTITY_COSET
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
        pairs = [(c, a) for c in self.cosets for a in sorted(self.alphabet)]
        for c, a in pairs:
            if (c, a) not in self.rules:
                raise InputError(f"rewriting table misses {(c, a)!r}")
        # the table of a group over G: a a' is 1 from every coset, so each
        # letter permutes the cosets (the walk's cycles), and a letter of G
        # stands for itself at coset 1
        for c, a in pairs:
            g, d = self.push(c, (a, invert_letter(a)))
            if d != c or not subgroup.word_problem(g):
                raise InputError(f"{a} {invert_letter(a)} is not 1 at {c!r}")
        for a in sorted(subgroup.alphabet):
            g, d = self.push(IDENTITY_COSET, (a,))
            if d != IDENTITY_COSET or not subgroup.word_problem(
                    g + (invert_letter(a),)):
                raise InputError(f"subgroup letter {a!r} is not itself at 1")
        # a word for each coset's representative: a word w that reaches
        # d from coset 1 pushes to (g, d), so g' w is d; the letter named
        # d need not be d itself (it may push to (g, d) with g not 1)
        paths = {IDENTITY_COSET: ()}
        queue = [IDENTITY_COSET]
        for c in queue:
            for a in sorted(self.alphabet):
                d = self.rules[(c, a)][1]
                if d not in paths:
                    paths[d] = paths[c] + (a,)
                    queue.append(d)
        self.coset_words = {
            d: invert_word(self.push(IDENTITY_COSET, w)[0]) + w
            for d, w in paths.items()}
        #: (coset, element) -> (subgroup element, coset) it pushes to
        self._pushed = {}

    # -- group operations: an element g d is the pair (g, d) -----------

    def elem_from_word(self, word):
        self.check_word(word)
        g, coset = self.push(IDENTITY_COSET, word)
        return self.subgroup.elem_from_word(g), coset

    def elem_mul(self, a, b):
        """(g, c) (h, d) = g (c h d): c pushes a word of (h, d), once per
        pair (c, (h, d)), as brute force multiplies by a few steps many
        times."""
        key = a[1], b
        pushed = self._pushed.get(key)
        if pushed is None:
            g, coset = self.push(a[1], self.elem_word(b))
            pushed = self._pushed[key] = self.subgroup.elem_from_word(g), coset
        return self.subgroup.elem_mul(a[0], pushed[0]), pushed[1]

    def elem_inv(self, a):
        return self.elem_from_word(invert_word(self.elem_word(a)))

    def elem_word(self, a):
        """A word for a, not a geodesic one: g's word, then d's."""
        g, coset = a
        return tuple(self.subgroup.elem_word(g)) + self.coset_words[coset]

    def push(self, coset, word):
        """(g, d) with coset * word = g * d in H and g over G's generators."""
        out = []
        for a in word:
            w, coset = self.rules[(coset, a)]
            out.extend(w)
        return tuple(out), coset

    def _cycle(self, d, u):
        """The least k >= 1 with f^k(d) = d for f(c) = coset of c u.

        f is a permutation of the cosets (the table's check), so d lies
        on a cycle of f, of length at most l = |C|.
        """
        c = d
        for k in range(1, len(self.cosets) + 1):
            c = self.push(c, u)[1]
            if c == d:
                return k
        raise AssertionError(f"coset {d!r} lies on no cycle of {u!r}")

    def _guesses(self, factors, coset, entries, shifts):
        """Yield (coset, entries, shifts) for every guess on the factors.

        entries spell the equation so far in the subgroup, as solve_local
        takes them; shifts[var] = (k, r) stands for var = k var' + r.  A
        repeated var refines its shift to the lcm of its cycles.
        """
        if not factors:
            yield coset, entries, shifts
            return
        (period, var, tail), rest = factors[0], factors[1:]
        k0, r0 = shifts.get(var, (1, 0))
        k = math.lcm(k0, self._cycle(coset, period))
        g_cycle = self.push(coset, period * k)[0]
        # a cycle word that is syntactically empty puts no subgroup
        # constraint on var: its shift alone describes it
        power = (("p", var, g_cycle),) if g_cycle else ()
        for r in range(r0, k, k0):
            g_res, d = self.push(coset, period * r + tail)
            known = (_refined(entries, var, k // k0, (r - r0) // k0)
                     if var in shifts and k > k0 else entries)
            yield from self._guesses(
                rest, d, known + power + (("e", g_res),),
                {**shifts, var: (k, r)})

    def solve(self, e, limits):
        """The union over the leaves of the guess walk (module docstring)."""
        names = e.variables
        comps = []
        for coset, entries, shifts in self._guesses(
                e.factors, IDENTITY_COSET, (), {}):
            limits.count("branches")
            if coset == IDENTITY_COSET and any(x[0] == "p" for x in entries):
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
            pieces += [SemilinearSet((v,), [LinearSet((r,), [(k,)])])
                       for v, (k, r) in shifts.items() if v not in sols.vars]
            comps += direct_sum_all(pieces, names).components
        # SemilinearSet keeps the first of equal components, so the order
        # is that of a union taken leaf by leaf
        return SemilinearSet(names, comps)


def _refined(entries, var, m, q):
    """entries under var' = m var'' + q: each power g^var' becomes
    (g^m)^var'' g^q."""
    out = []
    for x in entries:
        if x[0] == "p" and x[1] == var:
            out.append(("p", var, x[2] * m))
            if q:
                out.append(("e", x[2] * q))
        else:
            out.append(x)
    return tuple(out)


#: the old per-constructor name, kept while perfbench/worker.py
#: dispatches on it (ROADMAP item 10)
solve_exponent_finite_ext = solve_exponent
