"""Exact algebra of semilinear subsets of N^d.

A linear set L(b, P) is {b + P.lam : lam over N^k}; a semilinear set is a
finite union of linear sets over a fixed, named variable tuple.  These are
the output format of every solver in this package, so the operations here
(membership, union, intersection, projection, direct sum, affine
substitution) have to be exact, not approximate.

Intersection reduces to solving A.x = c over the nonnegative integers:
the solution set of such a system is itself semilinear, with the minimal
solutions as bases and the Hilbert basis of A.x = 0 as shared periods.
A DiophSolver finds both for the systems of one solve: a per-row gcd test
first, then per block of independent unknowns one Contejean/Devie search
for the Hilbert basis, memoised, and one for the minimal solutions of
each right-hand side, pruned by it, under an explicit node cap.
on_diagonal intersects with the diagonal of a variable renaming by a
system over the component's own period coefficients alone; intersect
and on_diagonal build one matrix per periods tuple (pair), and every
component with those periods shares it, its Hilbert basis and its image.
"""

import itertools
import math

from .errors import BudgetExceededError, InputError
from .words import components

DIOPH_DEFAULT_CAP = 10_000


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


class DiophSolver:
    """Minimal nonnegative solutions of the systems of one solve.

    solve(matrix, rhs, n) first rejects a system with a row whose gcd
    does not divide its right-hand side.  It then splits the n unknowns
    into independent blocks, unknowns linked by a nonzero entry in a
    shared row, and answers each block with two searches (_search): the
    Hilbert basis of its homogeneous part, then the minimal solutions of
    its inhomogeneous part, pruned by that basis.  Both are memoised,
    by the block's submatrix and by that and its right-hand side, and
    whole systems are memoised too.  A solve makes one solver
    (reduction.Limits) and hands it to every intersection and diagonal
    it computes, nested solves included, so the many systems of a
    solve, which share a few homogeneous parts, search each part once.
    The memo lives as long as the solver and so dies with its solve.

    nodes counts the nodes actually explored; a memo hit adds none.
    Each solve call charges its blocks against cap as if they were
    searched afresh: a system whose blocks explore more than cap nodes
    between them raises BudgetExceededError each time it is met.
    """

    def __init__(self, cap=DIOPH_DEFAULT_CAP):
        self.cap = cap
        self.nodes = 0
        self._splits = {}
        self._hilbert = {}
        self._minimal = {}
        self._solved = {}

    def solve(self, matrix, rhs, n):
        """(bases, periods) of matrix.x = rhs over N^n, both sorted.

        matrix is a tuple of row tuples.  The bases are the minimal
        solutions, the periods the Hilbert basis of matrix.x = 0; both
        are empty when there is no solution.
        """
        key = (matrix, rhs, n)
        solved = self._solved.get(key)
        if solved is None:
            solved = self._solved[key] = self._solve(matrix, rhs, n)
        return solved

    def _solve(self, matrix, rhs, n):
        split = self._splits.get((matrix, n))
        if split is None:
            split = self._splits[(matrix, n)] = _split(matrix, n)
        gcds, zero_columns, blocks = split
        if any(c % g if g else c for g, c in zip(gcds, rhs)):
            return (), ()
        used = 0
        solved = []
        for columns, rows, sub, gram in blocks:
            hilbert = self._hilbert.get(sub)
            if hilbert is None:
                units = [(_unit(len(gram), j), row, row[j], (1 << j) - 1)
                         for j, row in enumerate(gram)]
                hilbert = self._hilbert[sub] = self._search(
                    gram, units, (), self.cap - used)
            used = self._charge(used, hilbert[1])
            c = tuple(rhs[i] for i in rows)
            if not any(c):
                minimal = [(0,) * len(columns)]
            else:
                found = self._minimal.get((sub, c))
                if found is None:
                    # the defect of x = 0 is -c
                    start = [-_dot(c, column) for column in zip(*sub)]
                    found = self._minimal[(sub, c)] = self._search(
                        gram, [((0,) * len(columns), start, _dot(c, c), 0)],
                        hilbert[0], self.cap - used)
                used = self._charge(used, found[1])
                minimal = found[0]
            if not minimal:
                return (), ()
            solved.append((columns, hilbert[0], minimal))

        periods = [_unit(n, j) for j in zero_columns]
        for columns, hilbert, _minimal in solved:
            periods += [_embed(n, columns, h) for h in hilbert]
        bases = []
        for combo in itertools.product(*(m for _c, _h, m in solved)):
            base = [0] * n
            for (columns, _h, _m), m in zip(solved, combo):
                for j, a in zip(columns, m):
                    base[j] = a
            bases.append(tuple(base))
        return tuple(sorted(bases)), tuple(sorted(periods))

    def _charge(self, used, nodes):
        """used + nodes, or BudgetExceededError past the cap."""
        used += nodes
        if used > self.cap:
            raise BudgetExceededError(
                "Diophantine minimal-solution search", self.cap)
        return used

    def _search(self, gram, level, stored, budget):
        """(minimal zeros of the defect reachable from level, nodes).

        Contejean and Devie's breadth-first search.  A node t has the
        defect r = A.t - c; it is extended by e_k only when
        <r, A.e_k> < 0, and a node that dominates a stored vector or a
        zero found before it is pruned.  level lists the start nodes as
        (t, <r, A.e_k> for each k, |r|^2, frozen); gram holds the
        <A.e_j, A.e_k> that update the second and third.

        frozen is the bitmask of coordinates t may no longer raise: the
        child along e_k freezes every k' < k that t also extends along,
        and a unit start e_j every j' < j.  A minimal zero s above t is
        still reached, through the least k with t_k < s_k, since the
        coordinates frozen on the way already equal s's.  Two paths to
        one node would part at some node along k' < k, and k' stays
        frozen on the second, so every node is made once and needs no
        dedupe.

        Dominance is one AND per coordinate over bitmasks: at_most[j][v]
        has bit i set when stored vector i has coordinate j at most v,
        and a value past the list's end keeps every bit.  A parent
        dominates no stored vector, so its children share the ANDs of
        all coordinates but their own.
        """
        at_most = [[0] for _ in gram]
        stored_bits = 0

        def store(b):
            nonlocal stored_bits
            bit = 1 << stored_bits.bit_length()
            stored_bits |= bit
            for masks, v in zip(at_most, b):
                while len(masks) <= v:
                    masks.append(masks[-1])
                for w in range(v, len(masks)):
                    masks[w] |= bit

        for b in stored:
            store(b)
        found = []
        explored = len(level)
        self.nodes += explored
        while level:
            parents = []
            for node in level:
                if node[2]:
                    parents.append(node)
                else:
                    # node was tested against every zero of smaller sum
                    # when it was made, and no other zero of its sum lies
                    # below it, so it is minimal
                    found.append(node[0])
                    store(node[0])
            level = []
            for t, dots, norm, frozen in parents:
                if stored_bits:
                    # before[k] / after[k]: the AND of the masks of t's
                    # coordinates below k / from k on
                    masks = [m[v] if v < len(m) else stored_bits
                             for m, v in zip(at_most, t)]
                    before = [stored_bits]
                    for m in masks:
                        before.append(before[-1] & m)
                    after = [stored_bits]
                    for m in reversed(masks):
                        after.append(after[-1] & m)
                    after.reverse()
                for k, dot in enumerate(dots):
                    if dot >= 0 or frozen >> k & 1:
                        continue
                    keep = frozen
                    frozen |= 1 << k
                    v = t[k] + 1
                    if stored_bits:
                        m = at_most[k]
                        if (before[k] & after[k + 1]
                                & (m[v] if v < len(m) else stored_bits)):
                            continue
                    row = gram[k]
                    level.append((
                        t[:k] + (v,) + t[k + 1:],
                        [a + b for a, b in zip(dots, row)],
                        norm + 2 * dot + row[k],
                        keep,
                    ))
            explored += len(level)
            self.nodes += len(level)
            if explored > budget:
                raise BudgetExceededError(
                    "Diophantine minimal-solution search", self.cap)
        return found, explored


def _split(matrix, n):
    """(row gcds, zero columns, blocks) of matrix over n unknowns.

    A block is (columns, rows, submatrix, Gram matrix of its columns)
    for a class of unknowns linked by nonzero entries in shared rows
    (words.components); blocks come in the order of their first column,
    each with its columns and rows ascending.
    """
    supports = [[j for j, a in enumerate(row) if a] for row in matrix]
    used = set().union(*supports)
    classes = components(sorted(used),
                         [(s[0], j) for s in supports for j in s[1:]])
    block_of = {j: b for b, columns in enumerate(classes) for j in columns}
    rows_of = [[] for _ in classes]
    for i, support in enumerate(supports):
        if support:
            rows_of[block_of[support[0]]].append(i)
    blocks = []
    for columns, rows in zip(classes, rows_of):
        sub = tuple(tuple(matrix[i][j] for j in columns) for i in rows)
        cols = list(zip(*sub))
        gram = tuple(tuple(_dot(u, v) for v in cols) for u in cols)
        blocks.append((tuple(columns), tuple(rows), sub, gram))
    zero_columns = [j for j in range(n) if j not in used]
    return tuple(math.gcd(*row) for row in matrix), zero_columns, blocks


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _unit(n, j):
    return tuple(1 if i == j else 0 for i in range(n))


def _embed(n, columns, v):
    out = [0] * n
    for j, a in zip(columns, v):
        out[j] = a
    return tuple(out)


def solve_dioph_nonneg(matrix, rhs, var_names=None, solver=None):
    """Solution set of matrix.x = rhs over N, as a SemilinearSet.

    matrix is a tuple of integer row tuples and rhs a tuple of integers;
    var_names default to x0, x1, ....  The bases are the minimal
    solutions and the shared periods the Hilbert basis of the
    homogeneous system (DiophSolver.solve).  solver, by default a fresh
    DiophSolver under DIOPH_DEFAULT_CAP, counts the nodes explored.
    """
    if var_names is None:
        var_names = tuple(f"x{i}" for i in range(len(matrix[0])))
    solver = solver if solver is not None else DiophSolver()
    bases, periods = solver.solve(matrix, rhs, len(var_names))
    return SemilinearSet(var_names,
                         [LinearSet._unchecked(b, periods) for b in bases])


class LinearSet:
    """b + P.N^k with nonnegative entries; immutable."""

    __slots__ = ("base", "periods")

    def __init__(self, base, periods):
        base = tuple(int(v) for v in base)
        if any(v < 0 for v in base):
            raise InputError("LinearSet: negative base entry")
        seen = set()
        kept = []
        for p in periods:
            p = tuple(int(v) for v in p)
            if len(p) != len(base):
                raise InputError("LinearSet: period dimension mismatch")
            if any(v < 0 for v in p):
                raise InputError("LinearSet: negative period entry")
            if any(p) and p not in seen:
                seen.add(p)
                kept.append(p)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "periods", tuple(sorted(kept)))

    @classmethod
    def _unchecked(cls, base, periods):
        """LinearSet(base, periods) for a tuple base and a periods tuple
        that is already canonical: sorted, distinct, nonzero, >= 0."""
        self = object.__new__(cls)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "periods", periods)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LinearSet is immutable")

    @property
    def dim(self):
        return len(self.base)

    def __eq__(self, other):
        return (
            isinstance(other, LinearSet)
            and self.base == other.base
            and self.periods == other.periods
        )

    def __hash__(self):
        return hash((self.base, self.periods))

    def __repr__(self):
        return f"LinearSet({self.base}, {list(self.periods)})"

    def contains(self, v):
        """Solve periods.lam = v - base over N by bounded recursion."""
        target = tuple(a - b for a, b in zip(v, self.base))
        if any(t < 0 for t in target):
            return False
        periods = self.periods
        memo = {}

        def rec(j, rem):
            if all(r == 0 for r in rem):
                return True
            if j == len(periods):
                return False
            key = (j, rem)
            if key in memo:
                return memo[key]
            p = periods[j]
            # periods are nonzero, so some entry bounds the multiple of p
            bound = min(r // c for r, c in zip(rem, p) if c > 0)
            ok = False
            cur = rem
            for _ in range(bound + 1):
                if rec(j + 1, cur):
                    ok = True
                    break
                cur = tuple(r - c for r, c in zip(cur, p))
            memo[key] = ok
            return ok

        return rec(0, target)

    def images(self, bases, hilbert, shared):
        """One linear set b + P.lam + P.H.N^m per lam in bases.

        P is self.periods and H the vectors of hilbert; a vector's
        coordinates past len(P) belong to other unknowns and are
        ignored.  The images P.h are computed once per (P, H), in the
        dict shared that the components of one call share.
        """
        if not bases:
            return []

        def combine(start, lam):
            out = list(start)
            for coef, p in zip(lam, self.periods):
                if coef:
                    for i, x in enumerate(p):
                        out[i] += coef * x
            return tuple(out)

        key = (self.periods, hilbert)
        periods = shared.get(key)
        if periods is None:
            zero = (0,) * self.dim
            periods = shared[key] = tuple(sorted(
                {v for v in (combine(zero, h) for h in hilbert) if any(v)}))
        return [LinearSet._unchecked(combine(self.base, b), periods)
                for b in bases]

    def points_in_box(self, bound):
        """All points of the set with every coordinate <= bound."""
        if any(b > bound for b in self.base):
            return set()
        found = {self.base}
        frontier = [self.base]
        while frontier:
            nxt = []
            for v in frontier:
                for p in self.periods:
                    w = _vec_add(v, p)
                    if all(c <= bound for c in w) and w not in found:
                        found.add(w)
                        nxt.append(w)
            frontier = nxt
        return found


class SemilinearSet:
    """Finite union of LinearSets over an ordered tuple of variable names."""

    __slots__ = ("vars", "components")

    def __init__(self, var_names, components):
        var_names = tuple(var_names)
        if len(set(var_names)) != len(var_names):
            raise InputError("SemilinearSet: duplicate variable names")
        components = tuple(dict.fromkeys(components))
        for comp in components:
            if comp.dim != len(var_names):
                raise InputError("SemilinearSet: component dimension mismatch")
        object.__setattr__(self, "vars", var_names)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("SemilinearSet is immutable")

    @property
    def dim(self):
        return len(self.vars)

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearSet)
            and self.vars == other.vars
            and set(self.components) == set(other.components)
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.components)))

    def __repr__(self):
        return f"SemilinearSet(vars={self.vars}, components={list(self.components)})"

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, var_names):
        return cls(var_names, [])

    @classmethod
    def universe(cls, var_names):
        d = len(tuple(var_names))
        units = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
        return cls(var_names, [LinearSet((0,) * d, units)])

    @classmethod
    def point(cls, var_names, v):
        return cls(var_names, [LinearSet(v, [])])

    def is_empty_representation(self):
        return not self.components

    # -- variable alignment -------------------------------------------

    def _aligned_to(self, var_names):
        """Reorder coordinates to match var_names (same name set)."""
        if self.vars == tuple(var_names):
            return self
        if set(self.vars) != set(var_names):
            raise InputError(
                f"variable mismatch: {self.vars} vs {tuple(var_names)}"
            )
        return self.restrict(var_names)

    # -- queries -------------------------------------------------------

    def membership(self, v):
        if isinstance(v, dict):
            v = tuple(v[name] for name in self.vars)
        v = tuple(int(a) for a in v)
        if len(v) != self.dim:
            raise InputError("membership: dimension mismatch")
        return any(c.contains(v) for c in self.components)

    def points_in_box(self, bound):
        out = set()
        for c in self.components:
            out |= c.points_in_box(bound)
        return out

    def magnitude(self):
        mag = 0
        for c in self.components:
            for v in (c.base, *c.periods):
                for a in v:
                    mag = max(mag, abs(a))
        return mag

    # -- operations ----------------------------------------------------

    def union(self, other):
        other = other._aligned_to(self.vars)
        return SemilinearSet(self.vars, self.components + other.components)

    def intersect(self, other, solver=None):
        other = other._aligned_to(self.vars)
        solver = solver if solver is not None else DiophSolver()
        matrices, shared = {}, {}
        comps = []
        for c1, c2 in itertools.product(self.components, other.components):
            key = (c1.periods, c2.periods)
            matrix = matrices.get(key)
            if matrix is None:
                # rows: one per coordinate; unknowns (lam, mu):
                #   P1.lam - P2.mu = b2 - b1
                matrix = matrices[key] = tuple(
                    tuple([p[i] for p in c1.periods]
                          + [-p[i] for p in c2.periods])
                    for i in range(self.dim)
                )
            rhs = tuple(b - a for a, b in zip(c1.base, c2.base))
            unknowns = len(c1.periods) + len(c2.periods)
            comps += c1.images(*solver.solve(matrix, rhs, unknowns), shared)
        return SemilinearSet(self.vars, comps)

    def on_diagonal(self, K, solver=None):
        """self.intersect(K) for the diagonal K of an expr.Renaming.

        b + P.lam lies on K when (P_i - P_i0).lam = b_i0 - b_i for each
        coordinate i of a period's support but its first, i0.  As P >= 0,
        lam -> (lam, mu(lam)) is an order isomorphism onto the solutions
        of intersect's system, so both give the same linear sets.  The
        components that share their periods share the system's matrix,
        so one solver (by default a fresh DiophSolver) searches its
        homogeneous part once.
        """
        (diagonal,) = K._aligned_to(self.vars).components
        supports = [[i for i, a in enumerate(p) if a] for p in diagonal.periods]
        assert not any(diagonal.base) and set(sum(diagonal.periods, ())) <= {0, 1}
        assert sorted(sum(supports, [])) == list(range(self.dim))
        pairs = [(s[0], i) for s in supports for i in s[1:]]
        if not pairs:
            return self
        solver = solver if solver is not None else DiophSolver()
        systems, shared = {}, {}
        comps = []
        for c in self.components:
            system = systems.get(c.periods)
            if system is None:
                rows = [tuple(p[i] - p[i0] for p in c.periods)
                        for i0, i in pairs]
                # a zero row only asks the base to agree on its pair
                system = systems[c.periods] = (
                    tuple(row for row in rows if any(row)),
                    [pair for pair, row in zip(pairs, rows) if any(row)],
                    [pair for pair, row in zip(pairs, rows) if not any(row)],
                )
            matrix, moving, fixed = system
            b = c.base
            if any(b[i] != b[i0] for i0, i in fixed):
                continue
            if not matrix:
                comps.append(c)
                continue
            rhs = tuple(b[i0] - b[i] for i0, i in moving)
            comps += c.images(*solver.solve(matrix, rhs, len(c.periods)),
                              shared)
        return SemilinearSet(self.vars, comps)

    def direct_sum(self, other):
        if set(self.vars) & set(other.vars):
            raise InputError("direct_sum: overlapping variables")
        d1, d2 = self.dim, other.dim
        comps = []
        for c1, c2 in itertools.product(self.components, other.components):
            base = c1.base + c2.base
            periods = [p + (0,) * d2 for p in c1.periods]
            periods += [(0,) * d1 + p for p in c2.periods]
            comps.append(LinearSet(base, periods))
        return SemilinearSet(self.vars + other.vars, comps)

    def restrict(self, keep):
        keep = tuple(keep)
        for v in keep:
            if v not in self.vars:
                raise InputError(f"restrict: unknown variable {v!r}")
        idx = [self.vars.index(v) for v in keep]
        comps = [
            LinearSet(
                tuple(c.base[i] for i in idx),
                [tuple(p[i] for i in idx) for p in c.periods],
            )
            for c in self.components
        ]
        return SemilinearSet(keep, comps)

    def affine_substitute(self, coeffs, offsets):
        """Image under x_i = k_i * x'_i + off_i, componentwise.

        coeffs/offsets: dicts keyed by variable name, k_i >= 1, off_i >= 0.
        """
        ks = tuple(int(coeffs[v]) for v in self.vars)
        offs = tuple(int(offsets[v]) for v in self.vars)
        if any(k < 1 for k in ks) or any(o < 0 for o in offs):
            raise InputError("affine_substitute: need k >= 1 and off >= 0")
        comps = [
            LinearSet(
                tuple(k * b + o for k, b, o in zip(ks, c.base, offs)),
                [tuple(k * x for k, x in zip(ks, p)) for p in c.periods],
            )
            for c in self.components
        ]
        return SemilinearSet(self.vars, comps)

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        return {
            "vars": list(self.vars),
            "components": [
                {"base": list(c.base), "periods": [list(p) for p in c.periods]}
                for c in self.components
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        """The set of to_json_dict's form; anything else is an InputError."""
        try:
            names = data["vars"]
            rows = [[c["base"]] + c.get("periods", []) for c in data["components"]]
        except (AttributeError, KeyError, TypeError) as exc:
            raise InputError(f"bad SemilinearSet JSON: {exc}") from exc
        if not (_list_of(str, names) and len(set(names)) == len(names)):
            raise InputError("bad SemilinearSet JSON: vars must be a list of "
                             f"distinct strings, got {names!r}")
        for row in rows:
            if not all(_list_of(int, v) for v in row):
                raise InputError("bad SemilinearSet JSON: base and periods "
                                 f"must be lists of integers, got {row!r}")
        return cls(tuple(names), [LinearSet(row[0], row[1:]) for row in rows])


def _list_of(kind, v):
    """v is a list of kind values, bools not counted as ints."""
    return isinstance(v, list) and all(
        isinstance(a, kind) and not isinstance(a, bool) for a in v)
