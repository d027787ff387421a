"""Exact algebra of semilinear subsets of N^d.

A linear set L(b, P) is {b + P.lam : lam over N^k}; a semilinear set is a
finite union of linear sets over a fixed, named variable tuple.  These are
the output format of every solver in this package, so the operations here
(membership, union, intersection, projection, direct sum, affine
substitution) have to be exact, not approximate.

Intersection reduces to solving A.x = c over the nonnegative integers:
the solution set of such a system is itself semilinear, with the minimal
inhomogeneous solutions as bases and the Hilbert basis of the homogeneous
system as shared periods.  We find both with a breadth-first minimal
solution search with domination pruning (Contejean/Devie style), under an
explicit node cap; it never raises the homogenising slack past 1, the
only values used.  on_diagonal intersects with the diagonal of a variable
renaming by a system over the component's own period coefficients alone.
"""

import itertools

from .errors import BudgetExceededError, InputError

DIOPH_DEFAULT_CAP = 10_000


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_dominates(u, v):
    """True if u >= v componentwise."""
    return all(a >= b for a, b in zip(u, v))


class DiophSystem:
    """A.x = rhs with integer entries (possibly negative), x over N^d."""

    def __init__(self, matrix, rhs):
        matrix = tuple(tuple(int(a) for a in row) for row in matrix)
        rhs = tuple(int(c) for c in rhs)
        if len(matrix) != len(rhs):
            raise InputError("DiophSystem: row count does not match rhs length")
        width = {len(row) for row in matrix}
        if len(width) > 1:
            raise InputError("DiophSystem: ragged matrix")
        self.matrix = matrix
        self.rhs = rhs
        self.num_vars = width.pop() if width else 0

    def apply(self, x):
        return tuple(sum(a * xi for a, xi in zip(row, x)) for row in self.matrix)


def _minimal_nonneg_solutions(matrix, num_vars, cap):
    """Minimal solutions of matrix.x = 0, x != 0 in N^num_vars, slack <= 1.

    Breadth-first search from the unit vectors; a node t is extended by
    e_j only when <A.t, A.e_j> < 0 (the defect can still shrink) and the
    slack, the last coordinate, stays at most 1; any node dominating an
    already-found solution is pruned.  This is the classical complete
    search for Hilbert bases, cut at slack 1.
    """
    if num_vars == 0:
        return []
    columns = [tuple(row[j] for row in matrix) for j in range(num_vars)]
    slack = num_vars - 1

    def apply(x):
        out = [0] * len(matrix)
        for j, xj in enumerate(x):
            if xj:
                for i, a in enumerate(columns[j]):
                    out[i] += a * xj
        return tuple(out)

    basis = []
    frontier = []
    for j in range(num_vars):
        unit = tuple(1 if i == j else 0 for i in range(num_vars))
        if all(a == 0 for a in columns[j]):
            basis.append(unit)
        else:
            frontier.append(unit)
    explored = len(frontier)
    while frontier:
        next_frontier = {}
        for t in frontier:
            value = apply(t)
            if all(a == 0 for a in value):
                if not any(_vec_dominates(t, b) for b in basis):
                    basis.append(t)
                continue
            for j in range(slack if t[slack] else num_vars):
                col = columns[j]
                if sum(a * b for a, b in zip(value, col)) >= 0:
                    continue
                child = tuple(
                    x + 1 if i == j else x for i, x in enumerate(t)
                )
                if any(_vec_dominates(child, b) for b in basis):
                    continue
                next_frontier[child] = True
        explored += len(next_frontier)
        if explored > cap:
            raise BudgetExceededError("Diophantine minimal-solution search", cap)
        # A frontier node may have become dominated by a solution found in
        # this very round; filter again before expanding.
        frontier = [
            t for t in next_frontier
            if not any(_vec_dominates(t, b) for b in basis)
        ]
    return basis


def solve_dioph_nonneg(sys, var_names=None, cap=DIOPH_DEFAULT_CAP):
    """Solution set of sys over N, as a SemilinearSet.

    The system is homogenized with one extra slack variable multiplying
    -rhs; minimal solutions with slack 1 are the bases, minimal solutions
    with slack 0 are the shared periods (the Hilbert basis).
    """
    d = sys.num_vars
    if var_names is None:
        var_names = tuple(f"x{i}" for i in range(d))
    if len(var_names) != d:
        raise InputError("solve_dioph_nonneg: wrong number of variable names")
    matrix = [row + (-c,) for row, c in zip(sys.matrix, sys.rhs)]
    minimal = _minimal_nonneg_solutions(matrix, d + 1, cap)
    bases = [m[:d] for m in minimal if m[d] == 1]
    periods = [m[:d] for m in minimal if m[d] == 0]
    if not sys.matrix:
        # no equations: the whole orthant
        bases = [tuple(0 for _ in range(d))]
        periods = [
            tuple(1 if i == j else 0 for i in range(d)) for j in range(d)
        ]
    components = [LinearSet(b, periods) for b in bases]
    return SemilinearSet(var_names, components)


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
            bound = min(
                (r // c for r, c in zip(rem, p) if c > 0), default=None
            )
            ok = False
            if bound is None:
                # all-zero periods are dropped at construction
                ok = rec(j + 1, rem)
            else:
                cur = rem
                for _ in range(bound + 1):
                    if rec(j + 1, cur):
                        ok = True
                        break
                    cur = tuple(r - c for r, c in zip(cur, p))
            memo[key] = ok
            return ok

        return rec(0, target)

    def images(self, sols):
        """base + periods.lam for lam the leading coordinates of sols."""
        k = len(self.periods)

        def combine(start, lam):
            for coef, p in zip(lam[:k], self.periods):
                start = _vec_add(start, tuple(coef * x for x in p))
            return start

        zero = (0,) * self.dim
        return [
            LinearSet(combine(self.base, comp.base),
                      [combine(zero, h) for h in comp.periods])
            for comp in sols.components
        ]

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
        perm = [self.vars.index(v) for v in var_names]
        comps = [
            LinearSet(
                tuple(c.base[i] for i in perm),
                [tuple(p[i] for i in perm) for p in c.periods],
            )
            for c in self.components
        ]
        return SemilinearSet(var_names, comps)

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

    def intersect(self, other, cap=DIOPH_DEFAULT_CAP):
        other = other._aligned_to(self.vars)
        d = self.dim
        comps = []
        for c1, c2 in itertools.product(self.components, other.components):
            # rows: one per coordinate; unknowns (lam, mu):
            #   P1.lam - P2.mu = b2 - b1
            matrix = [
                [p[i] for p in c1.periods] + [-p[i] for p in c2.periods]
                for i in range(d)
            ]
            rhs = tuple(c2.base[i] - c1.base[i] for i in range(d))
            sols = solve_dioph_nonneg(DiophSystem(matrix, rhs), cap=cap)
            comps += c1.images(sols)
        return SemilinearSet(self.vars, comps)

    def on_diagonal(self, K):
        """self.intersect(K) for the diagonal K of an expr.Renaming.

        b + P.lam lies on K when (P_i - P_i0).lam = b_i0 - b_i for each
        coordinate i of a period's support but its first, i0.  As P >= 0,
        lam -> (lam, mu(lam)) is an order isomorphism onto the solutions
        of intersect's system, so both give the same linear sets.
        """
        (diagonal,) = K._aligned_to(self.vars).components
        supports = [[i for i, a in enumerate(p) if a] for p in diagonal.periods]
        assert not any(diagonal.base) and set(sum(diagonal.periods, ())) <= {0, 1}
        assert sorted(sum(supports, [])) == list(range(self.dim))
        pairs = [(s[0], i) for s in supports for i in s[1:]]
        comps = []
        for c in self.components:
            matrix, rhs = [], []
            for i0, i in pairs:
                row = tuple(p[i] - p[i0] for p in c.periods)
                if any(row) or c.base[i] != c.base[i0]:
                    matrix.append(row)
                    rhs.append(c.base[i0] - c.base[i])
            if matrix:
                comps += c.images(solve_dioph_nonneg(DiophSystem(matrix, rhs)))
            else:
                comps.append(c)
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
