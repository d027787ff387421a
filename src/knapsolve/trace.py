"""Trace monoid over vertex-group atoms.

Atoms are nontrivial elements of one vertex group; two atoms commute
exactly when their vertices are adjacent in the independence graph.
Traces are stored in lexicographic normal form (least linearization
under the order: vertex index first, then the vertex group's element
order), so equality and hashing are cheap; canon finds it by Kahn's
algorithm on the dependence DAG, in O(n |V|) for n atoms.

The rewriting system R multiplies adjacent same-vertex atoms (deleting
the pair when the product is trivial).  It is confluent and
length-reducing, and a trace represents the group identity iff its
normal form is empty; nf_R finds it in one insertion pass, also
O(n |V|), and one canon.
"""

import heapq
import itertools

from .errors import BudgetExceededError, InputError
from .words import components

DOWNSET_CAP = 300_000


class Atom:
    __slots__ = ("vertex", "elem", "_hash")

    def __init__(self, vertex, elem):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "elem", elem)
        object.__setattr__(self, "_hash", hash((vertex, elem)))

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and self.vertex == other.vertex
            and self.elem == other.elem
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Atom({self.vertex}, {self.elem})"


class TraceMonoid:
    """Context object: vertex groups plus the independence graph."""

    def __init__(self, vertex_backends, edges):
        self.vertices = list(vertex_backends)
        n = len(self.vertices)
        edge_set = set()
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise InputError(f"bad independence edge ({i},{j})")
            edge_set.update(((i, j), (j, i)))
        # adjacent vertex pairs, each in both orders
        self.edges = edge_set
        self._alpha = None
        self._projections = None
        # letter -> vertex index; child alphabets must be disjoint
        self.letter_map = {}
        for idx, backend in enumerate(self.vertices):
            for letter in backend.alphabet:
                if letter in self.letter_map:
                    raise InputError(
                        f"letter {letter!r} appears in two vertex groups"
                    )
                self.letter_map[letter] = idx
        self.alphabet = frozenset(self.letter_map)

    def independent(self, v1, v2):
        return (v1, v2) in self.edges

    def dependent_vertex_pairs(self):
        """All (i, j) with i <= j whose atoms do not commute (incl. i=j)."""
        n = len(self.vertices)
        out = [(i, i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if not self.independent(i, j):
                    out.append((i, j))
        return out

    def projection_pairs(self):
        """The dependent pairs whose projections decide trace equality,
        listed once: every dependent (i, j) with i < j, and (i, i) only
        for a vertex i that depends on no other vertex, as the
        projection onto (i, j) decides those onto i and onto j."""
        if self._projections is None:
            pairs = self.dependent_vertex_pairs()
            linked = {v for i, j in pairs if i != j for v in (i, j)}
            self._projections = tuple(
                (i, j) for i, j in pairs if i != j or i not in linked)
        return self._projections

    def alpha(self):
        """Largest clique size in the independence graph, searched once.

        Cliques are closed under subsets, so the search stops at the
        first size that has none.
        """
        if self._alpha is None:
            n = len(self.vertices)
            self._alpha = 1 if n else 0
            for size in range(2, n + 1):
                if not any(
                    all(self.independent(a, b)
                        for a, b in itertools.combinations(combo, 2))
                    for combo in itertools.combinations(range(n), size)
                ):
                    break
                self._alpha = size
        return self._alpha

    # -- atoms ---------------------------------------------------------

    def atom_key(self, atom):
        backend = self.vertices[atom.vertex]
        return (atom.vertex, backend.elem_sort_key(atom.elem))

    def atom_mul(self, a, b):
        """Product of two same-vertex atoms; None if it is the identity."""
        backend = self.vertices[a.vertex]
        prod = backend.elem_mul(a.elem, b.elem)
        if prod == backend.identity_elem:
            return None
        return Atom(a.vertex, prod)

    def atom_inv(self, a):
        backend = self.vertices[a.vertex]
        return Atom(a.vertex, backend.elem_inv(a.elem))

    def atom_norm(self, a):
        return self.vertices[a.vertex].elem_norm(a.elem)

    def atom_word(self, a):
        return self.vertices[a.vertex].elem_word(a.elem)

    def atoms_from_word(self, word):
        atoms = []
        for letter in word:
            if letter not in self.letter_map:
                raise InputError(f"letter {letter!r} not in any vertex group")
            vertex = self.letter_map[letter]
            backend = self.vertices[vertex]
            elem = backend.elem_from_word((letter,))
            if elem != backend.identity_elem:
                atoms.append(Atom(vertex, elem))
        return atoms

    # -- traces --------------------------------------------------------

    def canon(self, atoms):
        """Lexicographically least linearization of the commutation class.

        Each atom gets a DAG edge from the latest earlier atom of each
        vertex it depends on, and Kahn's algorithm emits the least
        available atom each time.  Available atoms are independent, so
        their vertices differ and decide their atom_key order.
        """
        n = len(atoms)
        last = {}
        succ = [[] for _ in range(n)]
        preds = [0] * n
        for j, atom in enumerate(atoms):
            v = atom.vertex
            for u, i in last.items():
                if not self.independent(u, v):
                    succ[i].append(j)
                    preds[j] += 1
            last[v] = j
        heap = [(atoms[j].vertex, j) for j in range(n) if not preds[j]]
        heapq.heapify(heap)
        out = []
        while heap:
            i = heapq.heappop(heap)[1]
            out.append(atoms[i])
            for j in succ[i]:
                preds[j] -= 1
                if not preds[j]:
                    heapq.heappush(heap, (atoms[j].vertex, j))
        return Trace(self, out)

    def reduce_atoms(self, atoms):
        """An R-irreducible linearization of the trace of atoms.

        Appends each atom a of vertex v to a reduced word, or multiplies
        it into the latest kept atom b of v when no kept atom dependent
        on v lies after b (dropping b if the product is trivial).  Each
        step is an R step that leaves the word reduced, as a dropped b
        is maximal, so by confluence the result is the normal form.
        """
        out = []
        kept = {}
        for atom in atoms:
            v = atom.vertex
            own = kept.get(v)
            if own and all(
                pos[-1] <= own[-1] or self.independent(u, v)
                for u, pos in kept.items()
                if pos
            ):
                merged = self.atom_mul(out[own[-1]], atom)
                out[own[-1]] = merged
                if merged is None:
                    own.pop()
                continue
            kept.setdefault(v, []).append(len(out))
            out.append(atom)
        return [a for a in out if a is not None]

    def trace_from_word(self, word):
        return self.canon(self.atoms_from_word(word))

    def empty_trace(self):
        return Trace(self, ())


class Trace:
    """Immutable trace in canonical linearization; create via TraceMonoid."""

    __slots__ = ("monoid", "atoms", "_order", "_alph", "_inv", "_hash")

    def __init__(self, monoid, atoms):
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_alph", None)
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Trace is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Trace)
            and self.monoid is other.monoid
            and self.atoms == other.atoms
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.atoms))
        return self._hash

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        inner = " ".join(f"{a.vertex}:{a.elem}" for a in self.atoms)
        return f"[{inner}]"

    def __mul__(self, other):
        return self.monoid.canon(self.atoms + other.atoms)

    def pow(self, k):
        return self.monoid.canon(self.atoms * k)

    def inv(self):
        if self._inv is None:
            object.__setattr__(self, "_inv", self.monoid.canon(
                [self.monoid.atom_inv(a) for a in reversed(self.atoms)]
            ))
        return self._inv

    def alph_gamma(self):
        if self._alph is None:
            object.__setattr__(
                self, "_alph", frozenset(a.vertex for a in self.atoms)
            )
        return self._alph

    def is_identity(self):
        return not self.atoms

    def norm(self):
        return sum(self.monoid.atom_norm(a) for a in self.atoms)

    def to_word(self):
        out = []
        for a in self.atoms:
            out.extend(self.monoid.atom_word(a))
        return tuple(out)

    # -- dependence order over positions of the canonical word ---------

    def order(self):
        """order[i] = set of positions strictly below position i."""
        if self._order is not None:
            return self._order
        below = []
        last = {}
        for j, atom in enumerate(self.atoms):
            below.append(set())
            for u, i in last.items():
                if not self.monoid.independent(u, atom.vertex):
                    below[j] |= below[i] | {i}
            last[atom.vertex] = j
        object.__setattr__(self, "_order", below)
        return below

    def minimal_positions(self):
        below = self.order()
        return [i for i in range(len(self.atoms)) if not below[i]]

    def maximal_positions(self):
        above = set()
        for below in self.order():
            above |= below
        # position i is maximal iff nothing has it strictly below
        return [i for i in range(len(self.atoms)) if i not in above]

    def subtrace(self, positions):
        keep = sorted(positions)
        return self.monoid.canon([self.atoms[i] for i in keep])

    def downsets(self):
        """All downsets of the dependence order, as frozensets of positions."""
        below = self.order()
        n = len(self.atoms)
        found = {frozenset()}
        frontier = [frozenset()]
        while frontier:
            nxt = []
            for d in frontier:
                for i in range(n):
                    if i in d or not below[i] <= d:
                        continue
                    d2 = d | {i}
                    if d2 not in found:
                        found.add(d2)
                        if len(found) > DOWNSET_CAP:
                            raise BudgetExceededError(
                                "downset enumeration", DOWNSET_CAP
                            )
                        nxt.append(d2)
            frontier = nxt
        return found


def project_pair(t, i, j):
    """Atoms of vertices i and j in canonical order.

    For a dependent pair this is the projection word, independent of the
    chosen linearization; it is the basis of the projection
    characterization of trace equality.
    """
    return tuple(a for a in t.atoms if a.vertex in (i, j))


def independent_traces(t1, t2):
    """Every vertex of t1 is independent of every vertex of t2."""
    return all(
        t1.monoid.independent(v1, v2)
        for v1 in t1.alph_gamma()
        for v2 in t2.alph_gamma()
    )


# ---------------------------------------------------------------------------
# The rewriting system R


def has_redex(t):
    """Whether an R step applies to t; each one shortens it."""
    return len(nf_R(t).atoms) < len(t.atoms)


def nf_R(t):
    """Unique R-irreducible normal form of t.

    One insertion pass (TraceMonoid.reduce_atoms) and one canon; t
    itself when nothing reduces.
    """
    atoms = t.monoid.reduce_atoms(t.atoms)
    if len(atoms) == len(t.atoms):
        return t
    return t.monoid.canon(atoms)


# ---------------------------------------------------------------------------
# Structure: connectivity, well-behavedness


def connected_components(t):
    """Split t into pairwise independent connected factors."""
    vertices = list(dict.fromkeys(atom.vertex for atom in t.atoms))
    classes = components(vertices, (
        (v1, v2) for v1, v2 in itertools.combinations(vertices, 2)
        if not t.monoid.independent(v1, v2)
    ))
    part = {v: k for k, cls in enumerate(classes) for v in cls}
    positions = [[] for _ in classes]
    for pos, atom in enumerate(t.atoms):
        positions[part[atom.vertex]].append(pos)
    return [t.subtrace(p) for p in positions]


def is_connected(t):
    return len(connected_components(t)) == 1


def _same_vertex_split(t):
    """Positions (p, q), p minimal, q maximal, p != q, same vertex.

    Such a pair witnesses a factorization t = a v b with a, b atoms of
    one vertex group; its absence is the fourth well-behavedness
    condition.
    """
    minimal = t.minimal_positions()
    maximal = set(t.maximal_positions())
    for p in minimal:
        for q in maximal:
            if p != q and t.atoms[p].vertex == t.atoms[q].vertex:
                return (p, q)
    return None


def is_well_behaved(t):
    return (
        len(t.atoms) >= 2
        and not has_redex(t)
        and is_connected(t)
        and _same_vertex_split(t) is None
    )


# ---------------------------------------------------------------------------
# Power presentation


def power_presentation(u):
    """Rewrite u^m as s (v1^m ... vk^m) t with well-behaved or atomic vi.

    Iteratively peels matching first/last atoms of the same vertex group
    (u = a v b gives u^m = a (v.(ba))^m a^{-1}), then splits what is
    left into connected components.  The exact bounds |s|+|t|+sum|vi| <=
    3|u| (geodesic norms) and k <= alpha are asserted on every call.
    """
    monoid = u.monoid
    input_norm = u.norm()
    cur = nf_R(u)
    s = monoid.empty_trace()
    t = monoid.empty_trace()
    while len(cur.atoms) >= 2:
        split = _same_vertex_split(cur)
        if split is None:
            break
        p, q = split
        a = cur.atoms[p]
        b = cur.atoms[q]
        middle = cur.subtrace(set(range(len(cur.atoms))) - {p, q})
        c = monoid.atom_mul(b, a)
        s = nf_R(s * monoid.canon([a]))
        t = nf_R(monoid.canon([monoid.atom_inv(a)]) * t)
        if c is None:
            cur = nf_R(middle)
        else:
            cur = nf_R(middle * monoid.canon([c]))
    parts = connected_components(cur)
    for part in parts:
        assert len(part.atoms) == 1 or is_well_behaved(part), (
            "power presentation produced a bad factor"
        )
    alpha = monoid.alpha()
    assert len(parts) <= max(alpha, 1), "more factors than the clique bound"
    total = s.norm() + t.norm() + sum(p.norm() for p in parts)
    assert total <= 3 * input_norm, (
        f"power presentation norm bound violated: {total} > 3*{input_norm}"
    )
    return s, parts, t
