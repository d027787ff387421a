"""Virtually cyclic groups of three kinds as finite extensions of Z.

An HNN-extension of a finite group, an amalgam of two finite groups or
a free product of two finite groups is the fundamental group of a
finite graph of finite groups, with Euler characteristic chi = sum
1/|G_v| - sum 1/|G_e|, and a free subgroup of index n in it has rank
1 - n chi (Karrass, Pietrowski and Solitar, J. Austral. Math. Soc. 16,
1973).  Three kinds have chi = 0, so a subgroup <z> = Z of finite
index:

  - Hnn(F, A = B = F, phi) for a finite F, with chi = 1/|F| - 1/|F|;
    z = t, and the |F| elements of F represent the cosets;
  - F1 *_C F2 with C of index 2 in both finite factors, with chi =
    1/(2|C|) + 1/(2|C|) - 1/|C|; z = a b for a in F1 - C and b in
    F2 - C, and <z> has index 2 |C|;
  - Z2 * Z2, the graph product of two groups of order 2 over a graph
    without edges, with chi = 1/2 + 1/2 - 1; z = a c for the two
    involutions a and c, and <z> has index 2.  It is the only such
    group that a graph product of finite groups leaves once its join
    split has run.

The paper's closure under finite extensions then solves such a group
over a Z leaf, with no reduction search.  CyclicExtension builds that
finite extension from the group operations of the element protocol:

  - a breadth-first walk over the letters from 1 finds a representative
    of every right coset <z> g.  An element h lies in <z> exactly when
    it is z^n for some |n| up to length(h) // length(z), for a length
    with length(z^n) = |n| length(z): the stable-letter count tcount of
    an HNN or amalgam element (z^n has |n| or 2|n| stable letters), and
    the norm of a trace (z^n = (a c)^n has norm 2|n|);
  - the extension's letters are "z" and one letter per coset other
    than 1, which stands for the coset's representative, each with its
    inverse.  The rule (c, l) -> (z^n, d) is read from rep(c) l =
    z^n rep(d);
  - each letter of the group is rewritten as the word z^n d of its
    element, so no letter of the group has to name a coset.

FiniteExtBackend checks the table when it is built, as for any table.
"""

from .expr import ExponentExpression
from .finite_ext import IDENTITY_COSET, FiniteExtBackend
from .groups import IntegerGroup
from .words import invert_letter

#: the generator of the Z leaf, and its inverse
Z, Z_INV = "z", "z'"


class CyclicExtension:
    """group as the finite extension of its subgroup <z>, z given as a word.

    group is an Hnn, Amalgam or graph-product backend, index the index
    of <z> in it (module docstring), and length a function on its
    elements with length(z^n) = |n| length(z) > 0.  A walk that finds
    more cosets than index stops with a RuntimeError, as a length that
    misses a power of z would make it go on for ever.
    """

    def __init__(self, group, z_word, index, length):
        self.group = group
        z = group.elem_from_word(z_word)
        self._length = length
        self._z_length = length(z)
        self._powers = {0: group.identity_elem, 1: z, -1: group.elem_inv(z)}
        reps = {IDENTITY_COSET: group.identity_elem}
        #: a letter of the group -> the word z^n d of its element
        self._words = {}
        queue = [IDENTITY_COSET]
        for c in queue:
            for a in sorted(group.alphabet):
                g = group.elem_mul(reps[c], group.elem_from_word((a,)))
                n, d = self._locate(g, reps)
                if d is None:
                    if len(reps) == index:
                        raise RuntimeError("more cosets than the index")
                    d = f"c{len(reps)}"
                    reps[d] = g
                    queue.append(d)
                if c == IDENTITY_COSET:
                    self._words[a] = _z_power(n) + (
                        () if d == IDENTITY_COSET else (d,))
        internal = {Z: z, Z_INV: self._powers[-1]}
        for d, rep in reps.items():
            if d != IDENTITY_COSET:
                internal[d] = rep
                internal[invert_letter(d)] = group.elem_inv(rep)
        rules = []
        for c, rep in reps.items():
            for letter, g in internal.items():
                n, d = self._locate(group.elem_mul(rep, g), reps)
                rules.append((c, letter, _z_power(n), d))
        self.extension = FiniteExtBackend(IntegerGroup(Z), list(reps), rules)

    def _power(self, n):
        if n not in self._powers:
            step = 1 if n > 0 else -1
            self._powers[n] = self.group.elem_mul(self._power(n - step),
                                                  self._powers[step])
        return self._powers[n]

    def _locate(self, g, reps):
        """(n, d) with g = z^n rep(d), or (0, None) if g is in no coset
        of reps."""
        for d, rep in reps.items():
            h = self.group.elem_mul(g, self.group.elem_inv(rep))
            bound = self._length(h) // self._z_length
            for n in range(-bound, bound + 1):
                if self._power(n) == h:
                    return n, d
        return 0, None

    def _rewrite(self, word):
        return tuple(x for a in word for x in self._words[a])

    def solve(self, e, limits):
        """The finite extension's solve of e rewritten letter by letter; a
        period of letters equal to 1 becomes z z', which is 1 too."""
        return self.extension.solve(ExponentExpression([
            (self._rewrite(p) or (Z, Z_INV), var, self._rewrite(t))
            for p, var, t in e.factors
        ]), limits)


def _z_power(n):
    return (Z,) * n if n >= 0 else (Z_INV,) * -n
