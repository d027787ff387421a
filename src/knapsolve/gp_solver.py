"""Exponent equations over graph products of groups.

A graph product is built from vertex groups and an independence graph:
generators of adjacent vertex groups commute.  Elements are irreducible
traces over group-element atoms (module trace).  The solver is the
guess-and-reduce driver of module reduction; this module supplies what
is particular to graph products:

  - periods split into atomic and well-behaved parts by the trace power
    presentation, and an atomic power is zero when its vertex-group
    element solves it;
  - in the search, constants split at downsets, symbolic factors carry a
    guessed vertex alphabet, adjacent same-vertex atoms merge or
    discharge into vertex-group constraints;
  - factors are cut by the power-factorization grids, and matched factor
    pairs are resolved by the exact two-dimensional trace solver.

A graph product over a join is the direct product of the graph
products over its co-components (the connected components of the
non-commutation graph), so e = 1 iff each projection of e onto a
factor's letters is 1.  GraphProductBackend.solve then solves each
projection that keeps a power with that factor's own solve (a vertex
group's, or this one on the induced subgraph) under the caller's
limits, checks the others by the word problem and intersects the
factors' solution sets.

The moves of the search are written once, as generators.  Without
edges (free products) nothing commutes and the search is the span solver
of module reduction.  With edges, on graphs that are not joins, it is
the depth-first search, which treats the tuple of factors modulo
commutation of independent entries, so it never enumerates swap
sequences explicitly; two entries interact when nothing lies strictly
between them in the dependence order of the tuple.
"""

import itertools

from .errors import InputError
from .expr import expr_from_entries
from .groups import GroupBackend, require_elements, solve_exponent
from .reduction import (
    ReductionSearchBase,
    Scheme,
    restrict_lines,
    solve_by_reduction,
    solve_local,
)
from .semilinear import LinearSet, SemilinearSet
from .trace import (
    Atom,
    TraceMonoid,
    independent_traces,
    is_connected,
    nf_R,
    power_presentation,
    project_pair,
)
from .unary_automata import word_pair_power_solutions
from .words import components


class GraphProductBackend(GroupBackend):
    """Graph product of vertex group backends over an independence graph.

    Its elements are irreducible traces.
    """

    def __init__(self, children, edges):
        for idx, child in enumerate(children):
            require_elements(child, f"vertex {idx}")
        self.monoid = TraceMonoid(children, edges)
        self.alphabet = self.monoid.alphabet
        self.identity_elem = self.monoid.empty_trace()
        self.direct_factors = self._direct_factors()

    def _direct_factors(self):
        """The direct factors, one per co-component; () if there is one.

        Co-components are the connected components of the non-commutation
        graph; the group is the direct product of their graph products.
        A one-vertex factor is that vertex's backend.
        """
        monoid = self.monoid
        parts = components(range(len(monoid.vertices)),
                           monoid.dependent_vertex_pairs())
        if len(parts) < 2:
            return ()
        factors = []
        for part in parts:
            if len(part) == 1:
                factors.append(monoid.vertices[part[0]])
                continue
            index = {v: k for k, v in enumerate(part)}
            factors.append(GraphProductBackend(
                [monoid.vertices[v] for v in part],
                [(index[v], index[w]) for v, w in monoid.edges
                 if v < w and v in index and w in index],
            ))
        return tuple(factors)

    def elem_from_word(self, word):
        self.check_word(word)
        monoid = self.monoid
        return monoid.canon(monoid.reduce_atoms(monoid.atoms_from_word(word)))

    def elem_mul(self, a, b):
        return nf_R(a * b)

    def elem_inv(self, a):
        return a.inv()

    def elem_word(self, a):
        return a.to_word()

    def elem_norm(self, a):
        return a.norm()

    def elem_sort_key(self, a):
        return tuple(self.monoid.atom_key(atom) for atom in a.atoms)

    def solve(self, e, limits):
        """The reduction search, or over a join the direct-product split."""
        if not self.direct_factors:
            return solve_by_reduction(GraphProductScheme(self), e, limits)
        return _solve_over_join(self, e, limits)


# ---------------------------------------------------------------------------
# Reduction search over factor tuples
#
# Items (all hashable):
#   ("C", trace)                 concrete irreducible trace
#   ("A", vertex, entries)       symbolic same-vertex atom product;
#                                entries are ("e", elem) or ("p", i, elem)
#                                with i an atomic power index
#   ("F", i, fid, alph)          symbolic factor of power i with guessed
#                                vertex alphabet alph
#   ("W", i)                     an untouched well-behaved power u_i^{x_i}


class ReductionSearch(ReductionSearchBase):
    """Reduction search over graph-product items.

    Records are ("zero", i), ("ident", vertex, entries), ("assign", fid,
    i, alph, value) and ("pair", fidL, iL, alphL, fidR, iR, alphR); atom
    creations are counted per vertex.  The depth-first search runs only
    where the monoid has edges.
    """

    def __init__(self, monoid, powers, splits_cap, creation_cap, states_cap):
        super().__init__(powers, splits_cap, creation_cap, states_cap)
        self.monoid = monoid
        self.power_alphs = {i: u.alph_gamma() for i, u in powers.items()}
        self.power_atoms = {
            i: tuple(sorted(set(u.atoms), key=monoid.atom_key))
            for i, u in powers.items()
        }
        self._indep = {}
        self.use_dfs = bool(monoid.edges)

    # -- item helpers --------------------------------------------------

    def item_alph(self, item):
        tag = item[0]
        if tag == "C":
            return item[1].alph_gamma()
        if tag == "A":
            return frozenset((item[1],))
        if tag == "F":
            return item[3]
        return self.power_alphs[item[1]]

    def item_key(self, item):
        tag = item[0]
        if tag == "C":
            return (0, tuple(self.monoid.atom_key(a) for a in item[1].atoms))
        if tag == "A":
            child = self.monoid.vertices[item[1]]
            entries = tuple(
                ("e", child.elem_sort_key(e[1])) if e[0] == "e"
                else ("p", e[1], child.elem_sort_key(e[2]))
                for e in item[2]
            )
            return (1, item[1], entries)
        if tag == "F":
            return (2, item[1], item[2], tuple(sorted(item[3])))
        return (3, item[1])

    def independent_items(self, a, b):
        key = (a, b)
        hit = self._indep.get(key)
        if hit is None:
            alph_a = self.item_alph(a)
            alph_b = self.item_alph(b)
            hit = all(
                self.monoid.independent(v, w)
                for v in alph_a
                for w in alph_b
            )
            self._indep[key] = hit
        return hit

    def _below(self, items):
        """below[j]: indices of the items that stay left of item j."""
        n = len(items)
        below = [set() for _ in range(n)]
        for j in range(n):
            for i in range(j - 1, -1, -1):
                if i in below[j]:
                    continue
                if not self.independent_items(items[i], items[j]):
                    below[j].add(i)
                    below[j] |= below[i]
        return below

    def canon_items(self, items):
        """Normal form of the tuple modulo commutation of independents."""
        items = list(items)
        below = self._below(items)
        remaining = set(range(len(items)))
        out = []
        while remaining:
            available = [
                i for i in remaining if not (below[i] & remaining)
            ]
            pick = min(available, key=lambda i: (self.item_key(items[i]), i))
            out.append(items[pick])
            remaining.discard(pick)
        return tuple(out)

    def interaction_pairs(self, items):
        """Index pairs that commutation can make adjacent (left, right)."""
        n = len(items)
        below = self._below(items)
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                blocked = any(
                    i in below[r] and r in below[j]
                    for r in range(n)
                    if r != i and r != j
                )
                if not blocked:
                    pairs.append((i, j))
        return pairs

    def atom_entries(self, item):
        if item[0] == "A":
            return item[1], item[2]
        if item[0] == "C" and len(item[1].atoms) == 1:
            atom = item[1].atoms[0]
            return atom.vertex, (("e", atom.elem),)
        return None

    # -- search --------------------------------------------------------

    def factor(self, i, fid):
        return ("F", i, fid, self.power_alphs[i])

    def unary_moves(self, item):
        tag = item[0]
        if tag == "W":
            yield from self._zero_or_open(item)
        elif tag == "C" and len(item[1].atoms) > 1:
            trace = item[1]
            all_pos = set(range(len(trace.atoms)))
            for down in trace.downsets():
                if not down or down == all_pos:
                    continue
                left = trace.subtrace(down)
                right = trace.subtrace(all_pos - down)
                yield (("C", left), ("C", right)), (), True
        elif tag == "F":
            i, fid, alph = item[1], item[2], item[3]
            # guess that this factor is a single atom of u_i
            if len(alph) == 1:
                vertex = next(iter(alph))
                for atom in self.power_atoms[i]:
                    if atom.vertex != vertex:
                        continue
                    value = self.monoid.canon([atom])
                    rec = ("assign", fid, i, alph, value)
                    yield (("C", value),), (rec,), False
            # split into two alphabet-tagged factors
            sub = sorted(alph)
            for r1 in range(1, len(sub) + 1):
                for a1 in itertools.combinations(sub, r1):
                    s1 = frozenset(a1)
                    need = alph - s1
                    for r2 in range(1, len(sub) + 1):
                        for a2 in itertools.combinations(sub, r2):
                            s2 = frozenset(a2)
                            if need <= s2:
                                yield (("F", i, None, s1), ("F", i, None, s2)), (), True

    def binary_moves(self, left, right):
        if left[0] == "C" and right[0] == "C":
            if right[1] == left[1].inv():
                yield (), (), None
        for con, fac in ((left, right), (right, left)):
            if con[0] == "C" and fac[0] == "F":
                value = con[1].inv()
                if value.alph_gamma() == fac[3]:
                    yield (), (("assign", fac[2], fac[1], fac[3], value),), None
        if left[0] == "F" and right[0] == "F" and left[3] == right[3]:
            rec = (
                "pair",
                left[2], left[1], left[3],
                right[2], right[1], right[3],
            )
            yield (), (rec,), None

        ea = self.atom_entries(left)
        eb = self.atom_entries(right)
        if ea and eb and ea[0] == eb[0]:
            monoid = self.monoid
            vertex = ea[0]
            entries = ea[1] + eb[1]
            if all(entry[0] == "e" for entry in entries):
                child = monoid.vertices[vertex]
                prod = child.identity_elem
                for entry in entries:
                    prod = child.elem_mul(prod, entry[1])
                if prod == child.identity_elem:
                    yield (), (), None  # cancellation
                    return
                merged = ("C", monoid.canon([Atom(vertex, prod)]))
            else:
                yield (), (("ident", vertex, entries),), None
                merged = ("A", vertex, entries)
            yield (merged,), (), vertex


# ---------------------------------------------------------------------------
# Power factorization grids


#: the caches of this module key by the monoid itself, not its id(): a
#: key keeps its monoid alive, so a new monoid never meets a freed one's
#: entries
_FACTORIZATION_CACHE = {}
_GRID_CACHE = {}


def _ordered_factorizations(t, parts):
    """All tuples (w_1, ..., w_parts) with w_1 ... w_parts = t."""
    key = (t.monoid, t.atoms, parts)
    cached = _FACTORIZATION_CACHE.get(key)
    if cached is not None:
        return cached
    if parts == 1:
        out = [(t,)]
    else:
        out = []
        all_pos = set(range(len(t.atoms)))
        for down in t.downsets():
            first = t.subtrace(down)
            rest = t.subtrace(all_pos - down)
            for tail in _ordered_factorizations(rest, parts - 1):
                out.append((first,) + tail)
    _FACTORIZATION_CACHE[key] = out
    return out


def simplify_power_factorization(u, m):
    """Shape guesses for u^x = y_1 ... y_m with u connected nonempty.

    Yields (c, forms) where forms[j] (1-based position) is either
    ("power", p, s) meaning y_j = p u^{x_j} s with x_j >= 1, or
    ("concrete", w) meaning y_j = w, and x = c + sum of the x_j.
    """
    assert u.atoms and is_connected(u)
    assert m >= 1
    key = (u.monoid, u.atoms, m)
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return cached
    monoid = u.monoid
    empty = monoid.empty_trace()
    out = []
    if m == 1:
        out.append((0, (("power", empty, empty),)))
        _GRID_CACHE[key] = out
        return out
    gamma = len(monoid.vertices)
    # per column j < m: constant c_j and a factorization
    # s_j p_{j+1,j} ... p_{m,j} = u^{c_j}
    col_options = []
    for j in range(1, m):
        opts = []
        for c in range(gamma + 1):
            power = u.pow(c)
            for parts in _ordered_factorizations(power, m - j + 1):
                opts.append((c, parts[0], parts[1:]))
        col_options.append(opts)
    seen = set()
    for combo in itertools.product(*col_options):
        s = {j: combo[j - 1][1] for j in range(1, m)}
        s[m] = empty
        p = {}
        for j in range(1, m):
            for offset, piece in enumerate(combo[j - 1][2]):
                p[(j + 1 + offset, j)] = piece
        # independence of grid cells
        ok = True
        for (i1, j1), piece1 in p.items():
            if not ok:
                break
            for (i2, j2), piece2 in p.items():
                if j1 < j2 < i2 < i1 and not independent_traces(piece1, piece2):
                    ok = False
                    break
        if not ok:
            continue
        c_total = sum(combo[j - 1][0] for j in range(1, m))
        for bits in itertools.product((False, True), repeat=m):
            K = {j + 1 for j in range(m) if bits[j]}
            good = True
            for (i1, j1), piece in p.items():
                for k in range(j1 + 1, i1):
                    if k in K:
                        if piece.atoms:
                            good = False
                            break
                    elif not independent_traces(piece, s[k]):
                        good = False
                        break
                if not good:
                    break
            if not good:
                continue
            forms = []
            for j in range(1, m + 1):
                prefix = empty
                for l in range(1, j):
                    prefix = prefix * p[(j, l)]
                if j in K:
                    forms.append(("power", prefix, s[j]))
                else:
                    w = prefix * s[j]
                    if not w.atoms:
                        good = False
                        break
                    forms.append(("concrete", w))
            if not good:
                continue
            entry = (c_total, tuple(forms))
            sig = (c_total, tuple(
                (f[0], f[1].atoms, f[2].atoms) if f[0] == "power"
                else (f[0], f[1].atoms)
                for f in forms
            ))
            if sig not in seen:
                seen.add(sig)
                out.append(entry)
    _GRID_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# Two-dimensional trace knapsack


_TWO_DIM_CACHE = {}


def two_dim_trace_solve(p, u, s, q, v, t):
    """All (x, y) with p u^x s = q v^y t, as a list of lines (a,b,c,d).

    Each line stands for {(a + b z, c + d z) | z in N}.  Every trace
    equation is checked through its projections onto the dependent
    vertex pairs; each projection is a word equation handled by the
    unary automata pipeline; the projection constraints are intersected
    as semilinear sets.
    """
    monoid = u.monoid
    if not u.atoms or not v.atoms:
        raise InputError("two_dim_trace_solve needs nonempty periods")
    key = (
        monoid,
        p.atoms, u.atoms, s.atoms, q.atoms, v.atoms, t.atoms,
    )
    cached = _TWO_DIM_CACHE.get(key)
    if cached is not None:
        return cached
    result = _two_dim_trace_solve(p, u, s, q, v, t)
    _TWO_DIM_CACHE[key] = result
    return result


def _two_dim_trace_solve(p, u, s, q, v, t):
    monoid = u.monoid
    assert is_connected(u) and is_connected(v)
    names = ("x", "y")
    constraint = None
    for i, j in monoid.dependent_vertex_pairs():
        pu = project_pair(u, i, j)
        pv = project_pair(v, i, j)
        pp = project_pair(p, i, j)
        ps = project_pair(s, i, j)
        pq = project_pair(q, i, j)
        pt = project_pair(t, i, j)
        if not pu and not pv:
            if pp + ps == pq + pt:
                continue
            return []
        if pu and pv:
            lines = word_pair_power_solutions(pp, pu, ps, pq, pv, pt)
            comps = [
                LinearSet((a, c), [] if (b, d) == (0, 0) else [(b, d)])
                for a, b, c, d in lines
            ]
            local = SemilinearSet(names, comps)
        else:
            # only one side has a period here: the other exponent plays
            # no role in this projection, and this one has one candidate
            if pu:
                pre, per, post, target = pp, pu, ps, pq + pt
            else:
                pre, per, post, target = pq, pv, pt, pp + ps
            slack = len(target) - len(pre) - len(post)
            if slack < 0 or slack % len(per):
                return []
            k = slack // len(per)
            if pre + per * k + post != target:
                return []
            base, free = ((k, 0), (0, 1)) if pu else ((0, k), (1, 0))
            local = SemilinearSet(names, [LinearSet(base, [free])])
        constraint = local if constraint is None else constraint.intersect(local)
        if constraint.is_empty_representation():
            return []
    assert constraint is not None, "nonempty period with no projection"
    lines = set()
    for comp in constraint.components:
        assert len(comp.periods) <= 1, "projection intersection is not a line"
        b, d = comp.periods[0] if comp.periods else (0, 0)
        lines.add((comp.base[0], b, comp.base[1], d))
    return sorted(lines)


_CONCRETE_POWER_CACHE = {}


def _solve_concrete_power(prefix, u, suffix, target):
    """The unique x >= 1 with prefix u^x suffix = target, or None."""
    key = (u.monoid, prefix.atoms, u.atoms, suffix.atoms, target.atoms)
    if key in _CONCRETE_POWER_CACHE:
        return _CONCRETE_POWER_CACHE[key]
    slack = len(target.atoms) - len(prefix.atoms) - len(suffix.atoms)
    step = len(u.atoms)
    x = None
    if slack >= step and slack % step == 0:
        x = slack // step
        if prefix * u.pow(x) * suffix != target:
            x = None
    _CONCRETE_POWER_CACHE[key] = x
    return x


# ---------------------------------------------------------------------------
# The full solver


class GraphProductScheme(Scheme):
    """What graph products supply to the guess-and-reduce driver."""

    def __init__(self, backend):
        self.backend = backend
        self.monoid = backend.monoid
        self.one = self.monoid.empty_trace()
        # per (period atoms, factor count): the grid shapes by the tuple
        # of their forms' alphabets; a scheme lasts one solve
        self._shapes_by_alph = {}

    def preprocess(self, e):
        prep, K = super().preprocess(e)
        base_norm = sum(u.norm() + v.norm() for u, v in prep.inputs)
        total_norm = (sum(t.norm() for t in prep.tails)
                      + sum(u.norm() for u, _ in prep.powers))
        assert total_norm <= 3 * base_norm, "preprocessing norm bound violated"
        nontrivial = sum(1 for u, _v in prep.inputs if u.atoms)
        assert len(prep.powers) <= max(self.monoid.alpha(), 1) * nontrivial, (
            "preprocessing degree bound violated"
        )
        return prep, K

    def normal(self, word):
        return self.backend.elem_from_word(word)

    def mul(self, x, y):
        return self.backend.elem_mul(x, y)

    def presentation(self, u):
        return power_presentation(u)

    def is_atomic(self, u):
        return len(u.atoms) == 1

    def zero_guess(self, u, var, limits):
        atom = u.atoms[0]
        child = self.monoid.vertices[atom.vertex]
        return solve_local(
            child, [("p", var, child.elem_word(atom.elem))], limits
        )

    def atomic_item(self, i, u):
        atom = u.atoms[0]
        return ("A", atom.vertex, (("p", i, atom.elem),))

    def max_splits(self, m):
        pieces = (3 * self.monoid.alpha() + 4) * m * m
        if not self.monoid.edges:
            pieces = min(pieces, max(m, 7 * m - 12))
        return max(0, pieces - m)

    def max_creations(self, m):
        return max(0, m - 2)

    def search(self, powers, splits_cap, creation_cap, states_cap):
        return ReductionSearch(
            self.monoid, powers, splits_cap, creation_cap, states_cap
        )

    def local_solutions(self, rec, var_of, limits):
        """("ident", vertex, entries): the entries multiply to 1."""
        _kind, vertex, entries = rec
        child = self.monoid.vertices[vertex]
        return solve_local(child, [
            ("e", child.elem_word(entry[1])) if entry[0] == "e"
            else ("p", var_of[entry[1]], child.elem_word(entry[2]))
            for entry in entries
        ], limits)

    def factor_shapes(self, u, fids, assigns, pairs):
        """Grid shapes whose forms have the alphabets the search guessed."""
        alph = {fid: assign[1] for fid, assign in assigns.items()}
        for fid_l, _il, alph_l, fid_r, _ir, alph_r in pairs:
            alph[fid_l], alph[fid_r] = alph_l, alph_r
        key = (u.atoms, len(fids))
        index = self._shapes_by_alph.get(key)
        if index is None:
            index = self._shapes_by_alph[key] = {}
            for shape in simplify_power_factorization(u, len(fids)):
                index.setdefault(tuple(
                    u.alph_gamma() if form[0] == "power"
                    else form[1].alph_gamma()
                    for form in shape[1]
                ), []).append(shape)
        return index.get(tuple(alph[fid] for fid in fids), [])

    def match_value(self, u, form, value):
        if form[0] == "concrete":
            return 0 if form[1] == value else None
        return _solve_concrete_power(form[1], u, form[2], value)

    def pair_lines(self, wb, pair, form_l, form_r):
        """Lines of (p_l u_l^x s_l)(p_r u_r^y s_r) = 1 with x, y >= 1.

        A power form is ("power", p, s); a concrete one adds 0 to its
        power and leaves the other exponent to match_value.
        """
        _fl, i_l, _al, _fr, i_r, _ar = pair
        if form_l[0] == "concrete":
            x = self.match_value(wb[i_r], form_r, form_l[1].inv())
            return [] if x is None else [(0, 0, x, 0)]
        if form_r[0] == "concrete":
            x = self.match_value(wb[i_l], form_l, form_r[1].inv())
            return [] if x is None else [(x, 0, 0, 0)]
        return restrict_lines(two_dim_trace_solve(
            form_l[1], wb[i_l], form_l[2],
            form_r[2].inv(), wb[i_r].inv(), form_r[1].inv(),
        ), True, True)

    def pair_components(self, wb, order, comp_pairs, reduced):
        """The shared pair resolution, cached by powers, forms and pairs."""
        fid_map = {}
        for i in order:
            first_forms, _cs = reduced[i][0]
            for fid, _form in first_forms:
                fid_map[fid] = len(fid_map)
        key = (
            tuple(
                (wb[i], tuple(
                    (tuple((fid_map[fid], f) for fid, f in of), cs)
                    for of, cs in reduced[i]
                ))
                for i in order
            ),
            tuple(sorted(
                (fid_map[fl], order.index(il), fid_map[fr], order.index(ir))
                for fl, il, _al, fr, ir, _ar in comp_pairs
            )),
        )
        components = _COMPONENT_CACHE.get(key)
        if components is None:
            components = super().pair_components(wb, order, comp_pairs, reduced)
            _COMPONENT_CACHE[key] = components
        return components


_COMPONENT_CACHE = {}


#: the old per-constructor name, kept while perfbench/worker.py
#: dispatches on it (ROADMAP item 10)
solve_exponent_graph_product = solve_exponent


def _solve_over_join(backend, e, limits):
    """The intersection of the factors' solution sets of their projections
    of e, each solved under the caller's limits (module docstring).
    """
    names = e.variables
    result = None
    for factor in backend.direct_factors:
        entries = []
        for period, var, tail in e.factors:
            period = tuple(a for a in period if a in factor.alphabet)
            if period:
                entries.append(("p", var, period))
            entries.append(("e", tuple(a for a in tail if a in factor.alphabet)))
        if not any(entry[0] == "p" for entry in entries):
            if not factor.word_problem(sum((w for _e, w in entries), ())):
                return SemilinearSet.empty(names)
            continue
        sols = factor.solve(expr_from_entries(entries), limits)
        free = tuple(v for v in names if v not in sols.vars)
        if free:
            sols = sols.direct_sum(SemilinearSet.universe(free))
        sols = sols._aligned_to(names)
        with limits.dioph() as solver:
            result = sols if result is None else result.intersect(sols, solver)
        if result.is_empty_representation():
            break
    assert result is not None, "every period keeps a power in some factor"
    return result
