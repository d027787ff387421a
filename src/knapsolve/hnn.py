"""HNN-extensions with finite associated subgroups, and amalgamated products.

An HNN-extension H = <G, t | t^{-1} a t = phi(a), a in A> adds a stable
letter t to a base group G together with an isomorphism phi between two
finite subgroups A and B of G.  Elements are Britton-reduced alternating
words g0 t^{d1} g1 ... t^{dk} gk.  The solver is the guess-and-reduce
driver of module reduction; this module supplies what is particular to
HNN-extensions:

  - periods become a base element or a well-behaved core via the power
    presentation u^m = s v^m p, and a base-element power is a base
    item, which may discharge alone into a base-group constraint;
  - in the search, constants with a stable letter split at letter
    positions, adjacent base items merge or discharge into base-group
    constraints, and generalized cancellations consume two t-bearing
    items around a connecting element from A u B;
  - factors are cut at letter positions into s u^{x_j} p, and matched
    factor pairs are resolved by the two-dimensional automaton solver.

An amalgamated product G1 *_A G2 embeds into the HNN-extension of the
free product G1 * G2 by g -> t^{-1} g t on the first factor, so its
solver is the HNN solver after that substitution.
"""

import functools
import itertools
from operator import attrgetter

from .errors import InputError
from .expr import ExponentExpression
from .groups import FiniteGroup, GroupBackend, require_elements, solve_exponent
from .reduction import (
    ReductionSearchBase,
    Scheme,
    restrict_lines,
    solve_by_reduction,
    solve_local,
)
from .unary_automata import (
    TICK,
    lengths_to_xy,
    lockstep_product,
    loop_language_nfa,
    unary_length_set,
)
from .virtually_cyclic import CyclicExtension
from .words import invert_letter, invert_word


class BrittonWord:
    """Alternating word g0 t^{d1} g1 ... t^{dk} gk over a base group.

    Base segments are canonical base-group words; d_i is +1 or -1.
    """

    __slots__ = ("gs", "deltas", "_hash")

    def __init__(self, gs, deltas):
        gs = tuple(tuple(g) for g in gs)
        deltas = tuple(deltas)
        if len(gs) != len(deltas) + 1:
            raise InputError("BrittonWord needs one more base segment than t's")
        if any(d not in (1, -1) for d in deltas):
            raise InputError("BrittonWord exponents must be +1 or -1")
        object.__setattr__(self, "gs", gs)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "_hash", hash((gs, deltas)))

    def __setattr__(self, name, value):
        raise AttributeError("BrittonWord is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BrittonWord)
            and self.gs == other.gs
            and self.deltas == other.deltas
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BrittonWord({self.gs}, {self.deltas})"

    @property
    def tcount(self):
        return len(self.deltas)

    def is_identity(self):
        return not self.deltas and not self.gs[0]

    def is_base(self):
        return not self.deltas

    def letters(self, stable):
        out = list(self.gs[0])
        for d, g in zip(self.deltas, self.gs[1:]):
            out.append(stable if d == 1 else invert_letter(stable))
            out.extend(g)
        return tuple(out)


class HnnBackend(GroupBackend):
    """HNN-extension of a base backend by an isomorphism of finite subgroups.

    The base must have the element protocol.  The associated subgroups
    are given as parallel element lists: the i-th word of a_words maps
    to the i-th word of b_words.
    """

    def __init__(self, base, stable_letter, a_words, b_words):
        if stable_letter.endswith("'"):
            raise InputError("stable letter may not end with an apostrophe")
        require_elements(base, "base")
        bad = {stable_letter, invert_letter(stable_letter)} & set(base.alphabet)
        if bad:
            raise InputError("stable letter clashes with the base alphabet")
        self.base = base
        self.stable = stable_letter
        self.alphabet = frozenset(base.alphabet) | {
            stable_letter,
            invert_letter(stable_letter),
        }
        self._canon_cache = {}
        # coset representatives, filled as elements meet them
        self._rep_cache = {}
        self.identity_elem = self.identity_bw()
        if len(a_words) != len(b_words):
            raise InputError("associated subgroup lists must be parallel")
        a_elems = [self.base_canon(tuple(w)) for w in a_words]
        b_elems = [self.base_canon(tuple(w)) for w in b_words]
        if len(set(a_elems)) != len(a_elems) or len(set(b_elems)) != len(b_elems):
            raise InputError("associated subgroup lists contain duplicates")
        phi = dict(zip(a_elems, b_elems))
        if () not in phi:
            phi[()] = ()
            a_elems.append(())
            b_elems.append(())
        if phi[()] != ():
            raise InputError("phi must fix the identity")
        self._check_subgroup(a_elems, "A")
        self._check_subgroup(b_elems, "B")
        for x in a_elems:
            for y in a_elems:
                if phi[self.base_mul(x, y)] != self.base_mul(phi[x], phi[y]):
                    raise InputError("phi is not an isomorphism from A to B")
        self.a_set = frozenset(a_elems)
        self.b_set = frozenset(b_elems)
        self.ab = self.a_set | self.b_set
        self.phi = phi
        self.phi_inv = {b: a for a, b in phi.items()}

    def _check_subgroup(self, elems, name):
        have = set(elems)
        for x in elems:
            if self.base_canon(invert_word(x)) not in have:
                raise InputError(f"{name} is not closed under inverses")
            for y in elems:
                if self.base_mul(x, y) not in have:
                    raise InputError(f"{name} is not closed under products")

    # -- base-group element arithmetic on canonical words --------------

    def base_canon(self, word):
        word = tuple(word)
        hit = self._canon_cache.get(word)
        if hit is not None:
            return hit
        out = tuple(self.base.elem_word(self.base.elem_from_word(word)))
        self._canon_cache[word] = out
        return out

    def base_mul(self, *words):
        out = ()
        for w in words:
            out = out + tuple(w)
        return self.base_canon(out)

    def base_inv(self, word):
        return self.base_canon(invert_word(word))

    def sub_set(self, alpha):
        """The subgroup whose elements may cross t^{alpha} leftwards."""
        return self.a_set if alpha == 1 else self.b_set

    def cross(self, c, alpha):
        """phi^{alpha}(c) for c in sub_set(alpha)."""
        return self.phi[c] if alpha == 1 else self.phi_inv[c]

    # -- words ---------------------------------------------------------

    def parse(self, word):
        self.check_word(word)
        gs = [[]]
        deltas = []
        for letter in word:
            if letter == self.stable:
                deltas.append(1)
                gs.append([])
            elif letter == invert_letter(self.stable):
                deltas.append(-1)
                gs.append([])
            else:
                gs[-1].append(letter)
        return BrittonWord([self.base_canon(g) for g in gs], deltas)

    def cuts(self, w):
        """(prefix, suffix) of w's letters cut at 1, ..., len - 1, parsed.

        The one letter cut of the HNN hooks: the splits of a constant in
        the search and the factor shapes of a power.
        """
        letters = w.letters(self.stable)
        return [(self.parse(letters[:j]), self.parse(letters[j:]))
                for j in range(1, len(letters))]

    def identity_bw(self):
        return BrittonWord([()], ())

    def base_bw(self, word):
        return BrittonWord([self.base_canon(word)], ())

    def concat(self, u, v):
        return BrittonWord(
            u.gs[:-1] + (self.base_mul(u.gs[-1], v.gs[0]),) + v.gs[1:],
            u.deltas + v.deltas,
        )

    def bw_inv(self, u):
        return BrittonWord(
            tuple(self.base_inv(g) for g in reversed(u.gs)),
            tuple(-d for d in reversed(u.deltas)),
        )

    def bw_pow(self, u, k):
        out = self.identity_bw()
        for _ in range(k):
            out = self.concat(out, u)
        return out

    def bw_norm(self, u):
        return u.tcount + sum(self.base.norm(g) for g in u.gs)

    # -- group operations on canonical Britton words -------------------
    #
    # An element is its Britton-reduced word whose segment before each
    # t^{alpha} is the least element of its coset g sub_set(alpha) under
    # (length, word); the normal form theorem makes it unique.

    def _coset_rep(self, g, alpha):
        """(r, c) with g = r c, c in sub_set(alpha), r least in its coset."""
        key = (g, alpha)
        hit = self._rep_cache.get(key)
        if hit is None:
            r = min((self.base_mul(g, c) for c in self.sub_set(alpha)),
                    key=lambda w: (len(w), w))
            hit = self._rep_cache[key] = r, self.base_mul(invert_word(r), g)
        return hit

    def _canonical(self, gs, deltas, start=0):
        """The element of a reduced word whose segments before start are
        already coset representatives: each segment from start on is
        replaced by its representative and the rest crosses t^{alpha}."""
        gs = list(gs)
        for i in range(start, len(deltas)):
            gs[i], c = self._coset_rep(gs[i], deltas[i])
            if c:
                gs[i + 1] = self.base_mul(self.cross(c, deltas[i]), gs[i + 1])
        return BrittonWord(gs, deltas)

    def elem_from_word(self, word):
        """The element of a word, or of a BrittonWord."""
        w = britton_reduce(self, word)
        return self._canonical(w.gs, w.deltas)

    def elem_mul(self, u, v):
        """Pinches can only meet at the junction: pop them as a stack."""
        gs, deltas = list(u.gs[:-1]), list(u.deltas)
        middle = self.base_mul(u.gs[-1], v.gs[0])
        k = 0
        while (deltas and k < len(v.deltas) and deltas[-1] == -v.deltas[k]
               and middle in self.sub_set(v.deltas[k])):
            middle = self.base_mul(gs.pop(), self.cross(middle, v.deltas[k]),
                                   v.gs[k + 1])
            deltas.pop()
            k += 1
        start = len(deltas)
        return self._canonical(gs + [middle] + list(v.gs[k + 1:]),
                               deltas + list(v.deltas[k:]), start)

    def elem_inv(self, u):
        w = self.bw_inv(u)
        return self._canonical(w.gs, w.deltas)

    def elem_word(self, u):
        """A word for u, not a geodesic one."""
        return u.letters(self.stable)

    # -- GroupBackend interface ----------------------------------------

    @functools.cached_property
    def cyclic_extension(self):
        """The finite extension of Z = <t> (module virtually_cyclic) when
        A = B = a finite base, else None; built at the first solve."""
        if (isinstance(self.base, FiniteGroup)
                and len(self.a_set) == len(self.base.geodesic)):
            return CyclicExtension(self, (self.stable,), len(self.a_set),
                                   attrgetter("tcount"))
        return None

    def solve(self, e, limits):
        """Over Z when virtually cyclic, else by the reduction search."""
        if self.cyclic_extension is not None:
            return self.cyclic_extension.solve(e, limits)
        return solve_by_reduction(HnnScheme(self), e, limits)


def britton_reduce(backend, w):
    """Normal form: replace pins t^{-a} c t^{a} -> phi^{a}(c) until none."""
    if not isinstance(w, BrittonWord):
        w = backend.parse(w)
    gs = list(w.gs)
    deltas = list(w.deltas)
    changed = True
    while changed:
        changed = False
        for j in range(len(deltas) - 1):
            if deltas[j + 1] != -deltas[j]:
                continue
            if gs[j + 1] not in backend.sub_set(deltas[j + 1]):
                continue
            inner = backend.cross(gs[j + 1], deltas[j + 1])
            gs[j : j + 3] = [backend.base_mul(gs[j], inner, gs[j + 2])]
            del deltas[j : j + 2]
            changed = True
            break
    return BrittonWord(gs, deltas)


def hnn_equal(backend, u, v):
    """u = v in the extension, for words or BrittonWords: their
    canonical elements are equal."""
    return backend.elem_from_word(u) == backend.elem_from_word(v)


def is_well_behaved_bw(backend, w):
    """w and w^2 reduced: then every power of w is reduced."""
    if w != britton_reduce(backend, w):
        return False
    sq = backend.concat(w, w)
    return sq == britton_reduce(backend, sq)


def hnn_power_presentation(backend, u):
    """(s, v, p) with u^m = s v^m p, v a base element or well-behaved.

    The core v either lies in the base group or starts with t^{+-1}; the
    combined size of s, v, p is at most three times the size of u, and
    the equality is verified for small powers on every call.
    """
    u = britton_reduce(backend, u)
    one = backend.identity_bw()
    k = u.tcount
    if k == 0:
        return one, u, one
    # largest cancellation depth between a copy of u and the next one
    best = 0, (), one, one
    for m in range(1, k // 2 + 1):
        z = BrittonWord(((),) + u.gs[k - m + 1 :], u.deltas[k - m :])
        x = BrittonWord(u.gs[:m] + ((),), u.deltas[:m])
        zx = britton_reduce(backend, backend.concat(z, x))
        if zx.tcount == 0 and zx.gs[0] in backend.ab:
            best = m, zx.gs[0], z, x
    m, c, z, x = best
    y = BrittonWord(u.gs[m : k - m + 1], u.deltas[m : k - m])
    yc = BrittonWord(y.gs[:-1] + (backend.base_mul(y.gs[-1], c),), y.deltas)
    if yc.tcount == 0:
        s = x
        v = yc
        p = backend.concat(backend.base_bw(invert_word(c)), z)
    else:
        g, gq = yc.gs[0], yc.gs[-1]
        v = BrittonWord(
            ((),) + yc.gs[1:-1] + (backend.base_mul(gq, g),), yc.deltas
        )
        s = BrittonWord(x.gs[:-1] + (g,), x.deltas)
        cg = backend.base_mul(c, g)
        p = backend.concat(backend.base_bw(invert_word(cg)), z)
        assert is_well_behaved_bw(backend, v), "power core must be well-behaved"
    norm_u = backend.bw_norm(u)
    assert (
        backend.bw_norm(s) + backend.bw_norm(p) + backend.bw_norm(v)
        <= 3 * norm_u
    ), "power presentation size bound violated"
    for mm in range(6):
        lhs = backend.bw_pow(u, mm)
        rhs = backend.concat(backend.concat(s, backend.bw_pow(v, mm)), p)
        assert hnn_equal(backend, lhs, rhs), "power presentation equality failed"
    return s, v, p


# ---------------------------------------------------------------------------
# Two-dimensional knapsack: a u1 u^x u2 = v1 v^y v2 b


def _full_slots(bw):
    out = [("g", bw.gs[0])]
    for d, g in zip(bw.deltas, bw.gs[1:]):
        out.append(("t", d))
        out.append(("g", g))
    return out


def _cycle_slots(bw):
    slots = _full_slots(bw)
    if bw.gs[0] == ():
        return slots[1:]
    if bw.gs[-1] == () and bw.tcount:
        return slots[:-1]
    raise InputError("period must start or end with the stable letter")


def _side_parts(affix1, cycle, affix2):
    """Slot sequences (stem, cycle, exit) strictly alternating in lockstep."""
    stem = _full_slots(affix1)
    exit_ = _full_slots(affix2)
    if cycle[0][0] == "g":
        if stem[-1] == ("g", ()):
            stem = stem[:-1]
        assert not stem or stem[-1][0] == "t", "prefix misaligned with period"
    if cycle[-1][0] == "g":
        if exit_ and exit_[0] == ("g", ()):
            exit_ = exit_[1:]
        assert not exit_ or exit_[0][0] == "t", "suffix misaligned with period"
    first = stem[0] if stem else cycle[0]
    if first[0] == "t":
        stem = [("g", ())] + stem
    last = exit_[-1] if exit_ else cycle[-1]
    if last[0] == "t":
        exit_ = exit_ + [("g", ())]
    return stem, cycle, exit_


#: keyed by the backend itself, not its id(): a key keeps its backend
#: alive, so a new backend never meets a freed one's entries
_HNN_TWO_DIM_CACHE = {}


def two_dim_hnn_solve(backend, a, u1, u, u2, v1, v, v2, b):
    """Lines (a0,b0,c0,d0) = {(a0+b0 z, c0+d0 z)} with a u1 u^x u2 = v1 v^y v2 b.

    u and v must be well-behaved and contain the stable letter; a and b
    are A u B elements given as base words.  Both sides are laid out as
    strictly alternating slot sequences consumed in lockstep while the
    connecting element is tracked; accepted tick counts determine x and
    y by division.
    """
    a = backend.base_canon(a)
    b = backend.base_canon(b)
    if a not in backend.ab or b not in backend.ab:
        raise InputError("boundary elements must lie in the associated subgroups")
    for w in (u, v):
        if not w.tcount:
            raise InputError("two_dim_hnn_solve needs periods containing t")
    key = (backend, a, u1, u, u2, v1, v, v2, b)
    cached = _HNN_TWO_DIM_CACHE.get(key)
    if cached is not None:
        return cached
    stem_u, cyc_u, exit_u = _side_parts(u1, _cycle_slots(u), u2)
    stem_v, cyc_v, exit_v = _side_parts(v1, _cycle_slots(v), v2)
    n1 = loop_language_nfa(stem_u, cyc_u, exit_u)
    n2 = loop_language_nfa(stem_v, cyc_v, exit_v)

    def moves(top, bot):
        # the register is the connecting element c: a t-slot pair of one
        # exponent applies phi and ticks, a base-slot pair (g on top, h
        # below) moves c to h^{-1} c g inside A u B
        if top[0] == "t" and top == bot:
            for c in backend.sub_set(top[1]):
                yield c, TICK, backend.cross(c, top[1])
        elif top[0] == "g" and bot[0] == "g":
            for c in backend.ab:
                c2 = backend.base_mul(invert_word(bot[1]), c, top[1])
                if c2 in backend.ab:
                    yield c, None, c2

    progs = unary_length_set(lockstep_product(n1, n2, moves, (a,), (b,)))
    result = lengths_to_xy(
        progs, u1.tcount + u2.tcount, u.tcount, v1.tcount + v2.tcount, v.tcount
    )
    _HNN_TWO_DIM_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# Reduction search over factor tuples
#
# Items (all hashable):
#   ("C", bw)          concrete reduced word
#   ("B", entries)     symbolic base product; entries are ("e", word) or
#                      ("p", i, word) with i a base-element power index
#   ("F", i, fid)      symbolic factor of the well-behaved power i
#   ("W", i)           an untouched power u_i^{x_i}


class HnnReductionSearch(ReductionSearchBase):
    """Reduction search over HNN items.

    Records are ("zero", i), ("val", entries, a), ("assign", fid, i,
    value) and ("pair", fidL, iL, a, fidR, iR, b); all atom creations
    are counted under the one key "B".  Items never commute, so run() is
    the span solver.  Only constants with a stable letter split, so no
    tuple reaches itself and the span solver solves each tuple once.
    """

    def __init__(self, backend, powers, splits_cap, creation_cap, states_cap):
        super().__init__(powers, splits_cap, creation_cap, states_cap)
        self.backend = backend
        self.ab = sorted(backend.ab)

    def factor(self, i, fid):
        return ("F", i, fid)

    def _base_entries(self, item):
        if item[0] == "B":
            return item[1]
        if item[0] == "C" and item[1].is_base():
            return (("e", item[1].gs[0]),)
        return None

    @staticmethod
    def _t_bearing(item):
        if item[0] == "F":
            return True
        return item[0] == "C" and item[1].tcount >= 1

    def unary_moves(self, item):
        tag = item[0]
        if tag == "W":
            yield from self._zero_or_open(item)
        elif tag == "B":
            yield (), (("val", item[1], ()),), False
        elif tag == "F":
            yield (("F", item[1], None), ("F", item[1], None)), (), True
        elif tag == "C" and not item[1].is_base():
            # a base constant never splits: base items merge in any
            # grouping and a base run is used up only by a merge, a val
            # record or a cancellation middle, so whatever uses the pieces
            # the unsplit constant reaches too, at lower cost
            for left, right in dict.fromkeys(self.backend.cuts(item[1])):
                if not (left.is_identity() or right.is_identity()):
                    yield (("C", left), ("C", right)), (), True

    def binary_moves(self, left, right):
        el = self._base_entries(left)
        er = self._base_entries(right)
        if el is not None and er is not None:
            # adjacent base items merge
            entries = el + er
            if all(entry[0] == "e" for entry in entries):
                prod = self.backend.base_mul(*[entry[1] for entry in entries])
                if prod == ():
                    yield (), (), None
                    return
                merged = ("C", self.backend.base_bw(prod))
            else:
                yield (), (("val", entries, ()),), None
                merged = ("B", entries)
            yield (merged,), (), "B"
        elif self._t_bearing(left) and self._t_bearing(right):
            for out, records in self._gencancel(left, None, right):
                yield out, records, None

    def starts_ternary(self, x, middle):
        return self._t_bearing(x) and self._base_entries(middle) is not None

    def ternary_moves(self, x, middle, y):
        if self._t_bearing(y):
            yield from self._gencancel(x, middle, y)

    def _gencancel(self, X, middle, Y):
        """Generalized cancellations (X, a, Y) -> b: (out, records)."""
        backend = self.backend
        if middle is None:
            a_opts = [((), None)]
        else:
            entries = self._base_entries(middle)
            if all(entry[0] == "e" for entry in entries):
                aw = backend.base_mul(*[entry[1] for entry in entries])
                if aw not in backend.ab:
                    return
                a_opts = [(aw, None)]
            else:
                a_opts = [(aw, ("val", entries, aw)) for aw in self.ab]

        def emit(out_word, extra):
            out = () if out_word == () else (("C", backend.base_bw(out_word)),)
            return out, extra

        for aw, val_rec in a_opts:
            extra = (val_rec,) if val_rec else ()
            if X[0] == "C" and Y[0] == "C":
                mid = backend.base_bw(aw)
                r = britton_reduce(
                    backend, backend.concat(backend.concat(X[1], mid), Y[1])
                )
                if r.tcount == 0 and r.gs[0] in backend.ab:
                    yield emit(r.gs[0], extra)
            elif X[0] == "F" and Y[0] == "F":
                for bw_ in self.ab:
                    rec = ("pair", X[2], X[1], aw, Y[2], Y[1], bw_)
                    yield emit(bw_, extra + (rec,))
            else:
                # X a Y = b, so X = b Y^{-1} a^{-1} or Y = a^{-1} X^{-1} b
                left = X[0] == "F"
                fac, con = (X, Y) if left else (Y, X)
                con_inv = backend.bw_inv(con[1])
                a_inv = backend.base_bw(invert_word(aw))
                for bw_ in self.ab:
                    pieces = [backend.base_bw(bw_), con_inv, a_inv]
                    if not left:
                        pieces.reverse()
                    value = britton_reduce(backend, backend.concat(
                        backend.concat(pieces[0], pieces[1]), pieces[2]))
                    if value.tcount == 0:
                        continue
                    rec = ("assign", fac[2], fac[1], value)
                    yield emit(bw_, extra + (rec,))


# ---------------------------------------------------------------------------
# The full solver


class HnnScheme(Scheme):
    """What HNN-extensions supply to the guess-and-reduce driver."""

    def __init__(self, backend):
        self.backend = backend
        self.one = backend.identity_bw()

    def normal(self, word):
        return britton_reduce(self.backend, self.backend.parse(word))

    def mul(self, x, y):
        return britton_reduce(self.backend, self.backend.concat(x, y))

    def presentation(self, u):
        s, v, p = hnn_power_presentation(self.backend, u)
        return s, (v,), p

    def is_atomic(self, u):
        return u.tcount == 0

    def atomic_item(self, i, u):
        return ("B", (("p", i, u.gs[0]),))

    def max_splits(self, m):
        return max(0, max(m, 7 * m - 12) - m)

    def max_creations(self, m):
        return max(0, 4 * m - 8)

    def search(self, powers, splits_cap, creation_cap, states_cap):
        return HnnReductionSearch(
            self.backend, powers, splits_cap, creation_cap, states_cap
        )

    def local_solutions(self, rec, var_of, limits):
        """("val", entries, a): the entries multiply to a in the base group."""
        _kind, entries, a = rec
        return solve_local(self.backend.base, [
            entry if entry[0] == "e" else ("p", var_of[entry[1]], entry[2])
            for entry in entries
        ], limits, a)

    def factor_shapes(self, u, fids, assigns, pairs):
        """Cuts of u^x (HnnBackend.cuts) into forms (sfx, pfx).

        The factor of id fids[k] is sfx u^{x_k} pfx; c counts the cuts
        that fall inside a copy of u.
        """
        splits = [(self.one, self.one)] + self.backend.cuts(u)
        shapes = []
        for cuts in itertools.product(range(len(splits)), repeat=len(fids) - 1):
            bounds = (0,) + cuts + (0,)
            forms = tuple(
                (splits[bounds[k]][1], splits[bounds[k + 1]][0])
                for k in range(len(fids))
            )
            shapes.append((sum(1 for o in cuts if o > 0), forms))
        return shapes

    def match_value(self, u, form, value):
        """The unique x >= 0 with sfx u^x pfx = value, or None."""
        sfx, pfx = form
        tm = value.tcount - sfx.tcount - pfx.tcount
        if tm < 0 or tm % u.tcount:
            return None
        x = tm // u.tcount
        backend = self.backend
        candidate = backend.concat(backend.concat(sfx, backend.bw_pow(u, x)), pfx)
        return x if hnn_equal(backend, candidate, value) else None

    def pair_lines(self, wb, pair, form_l, form_r):
        """Lines of (sfx_l u_l^x pfx_l) a (sfx_r u_r^y pfx_r) = b."""
        _fl, i_l, a, _fr, i_r, b = pair
        backend = self.backend
        sfx_l, pfx_l = form_l
        sfx_r, pfx_r = form_r
        # as a^{-1} pfx_l^{-1} (u_l^{-1})^x sfx_l^{-1} = sfx_r u_r^y pfx_r b^{-1}
        lines = two_dim_hnn_solve(
            backend,
            invert_word(a),
            backend.bw_inv(pfx_l),
            backend.bw_inv(wb[i_l]),
            backend.bw_inv(sfx_l),
            sfx_r,
            wb[i_r],
            pfx_r,
            invert_word(b),
        )
        # a factor consumed by a generalized cancellation contains t
        need_x = sfx_l.tcount + pfx_l.tcount == 0
        need_y = sfx_r.tcount + pfx_r.tcount == 0
        return restrict_lines(lines, need_x, need_y)


# ---------------------------------------------------------------------------
# Amalgamated products


class AmalgamBackend(GroupBackend):
    """Amalgamated product of two backends over isomorphic finite subgroups.

    phi1 and phi2 are parallel element lists: the i-th word over the
    left factor is identified with the i-th word over the right factor.
    Internally the group embeds into an HNN-extension of the free
    product of the factors.
    """

    def __init__(self, left, right, phi1, phi2, stable_letter="t"):
        if set(left.alphabet) & set(right.alphabet):
            raise InputError("amalgam factors must use disjoint alphabets")
        for w in phi1:
            if any(letter not in left.alphabet for letter in w):
                raise InputError("phi1 words must lie in the left factor")
        for w in phi2:
            if any(letter not in right.alphabet for letter in w):
                raise InputError("phi2 words must lie in the right factor")
        from .gp_solver import GraphProductBackend

        self.left = left
        self.right = right
        base = GraphProductBackend([left, right], [])
        self.hnn = HnnBackend(
            base, stable_letter,
            [tuple(w) for w in phi1],
            [tuple(w) for w in phi2],
        )
        self.stable = stable_letter
        self.alphabet = frozenset(left.alphabet) | frozenset(right.alphabet)
        self.identity_elem = self.hnn.identity_elem

    def elem_from_word(self, word):
        return self.hnn.elem_from_word(amalgam_embed(self, word))

    def elem_mul(self, a, b):
        return self.hnn.elem_mul(a, b)

    def elem_inv(self, a):
        return self.hnn.elem_inv(a)

    def elem_word(self, a):
        """A word for a, not a geodesic one: a's Britton word without its
        stable letters, which stand only around left-factor segments."""
        return sum(a.gs, ())

    @functools.cached_property
    def cyclic_extension(self):
        """The finite extension of Z = <a b> (module virtually_cyclic)
        when both factors are finite and the amalgamated subgroup has
        index 2 in each, with a and b outside it; else None.  Built at
        the first solve."""
        hnn = self.hnn
        sides = ((self.left, hnn.a_set), (self.right, hnn.b_set))
        if not all(isinstance(f, FiniteGroup) and len(f.geodesic) == 2 * len(c)
                   for f, c in sides):
            return None
        z_word = ()
        for f, c in sides:
            z_word += min((w for w in f.geodesic.values()
                           if hnn.base_canon(w) not in c),
                          key=lambda w: (len(w), w))
        return CyclicExtension(self, z_word, 2 * len(hnn.a_set),
                               attrgetter("tcount"))

    def solve(self, e, limits):
        """Over Z when virtually cyclic, else the HNN solve of e after
        the embedding."""
        if self.cyclic_extension is not None:
            return self.cyclic_extension.solve(e, limits)
        return self.hnn.solve(amalgam_embed_expr(self, e), limits)


def amalgam_embed_expr(backend, e):
    """e with every period and tail embedded (amalgam_embed)."""
    return ExponentExpression([
        (amalgam_embed(backend, p), var, amalgam_embed(backend, t))
        for p, var, t in e.factors
    ])


def amalgam_embed(backend, word):
    """Conjugate left-factor letters by the stable letter: g -> t^{-1} g t."""
    backend.check_word(word)
    tin = invert_letter(backend.stable)
    out = []
    for letter in word:
        if letter in backend.left.alphabet:
            out.extend((tin, letter, backend.stable))
        else:
            out.append(letter)
    return tuple(out)


#: the old per-constructor names, kept while perfbench/worker.py
#: dispatches on them (ROADMAP item 10)
solve_exponent_hnn = solve_exponent_amalgam = solve_exponent


__all__ = [
    "BrittonWord",
    "HnnBackend",
    "AmalgamBackend",
    "britton_reduce",
    "hnn_equal",
    "is_well_behaved_bw",
    "hnn_power_presentation",
    "two_dim_hnn_solve",
    "solve_exponent_hnn",
    "amalgam_embed",
    "amalgam_embed_expr",
    "solve_exponent_amalgam",
]
