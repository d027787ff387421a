"""Trace monoid layer: canonical forms, rewriting, structure, powers."""

import itertools
import random

import pytest

from knapsolve.errors import BudgetExceededError
from knapsolve.gp_solver import GraphProductBackend
from knapsolve.groups import IntegerGroup, cyclic_group
from knapsolve.trace import (
    Trace,
    TraceMonoid,
    connected_components,
    has_redex,
    independent_traces,
    is_connected,
    is_well_behaved,
    nf_R,
    power_presentation,
    project_pair,
)
from knapsolve.words import invert_word

PREFIX_COUNT_CAP = 200_000
LEVI_CAP = 300_000


def equal_by_projections(t1, t2, pairs=None):
    """Trace equality through the projections onto dependent vertex
    pairs: all of them, or the given ones."""
    if pairs is None:
        pairs = t1.monoid.dependent_vertex_pairs()
    return all(
        project_pair(t1, i, j) == project_pair(t2, i, j) for i, j in pairs
    )


def prefix_count(t, cap=PREFIX_COUNT_CAP):
    """Number of prefixes of t (downsets of its dependence order)."""
    below = t.order()
    n = len(t.atoms)
    strictly_above = [set() for _ in range(n)]
    for j in range(n):
        for i in below[j]:
            strictly_above[i].add(j)
    memo = {}

    def count(positions):
        if not positions:
            return 1
        key = positions
        if key in memo:
            return memo[key]
        if len(memo) > cap:
            raise BudgetExceededError("prefix counting", cap)
        x = next(iter(positions))
        up = (strictly_above[x] & positions) | {x}
        down = (below[x] & positions) | {x}
        result = count(positions - up) + count(positions - down)
        memo[key] = result
        return result

    return count(frozenset(range(n)))


def levi_decompositions(t, m, n, cap=LEVI_CAP):
    """All m x n grids {w_ij} with row product t and Levi independence.

    Enumerates assignments of positions to cells; exponential, guarded
    by a budget, meant for small traces.
    """
    size = len(t.atoms)
    cells = m * n
    if cells**size > cap:
        raise BudgetExceededError("Levi grid enumeration", cap)
    seen = set()
    out = []
    for assignment in itertools.product(range(cells), repeat=size):
        grid = [[[] for _ in range(n)] for _ in range(m)]
        for pos, cell in enumerate(assignment):
            grid[cell // n][cell % n].append(pos)
        traces = [
            [t.subtrace(grid[i][j]) for j in range(n)] for i in range(m)
        ]
        key = tuple(tuple(w.atoms for w in row) for row in traces)
        if key in seen:
            continue
        ok = True
        # independence: w_ij commutes with w_kl for i < k, j > l
        for i, k in itertools.combinations(range(m), 2):
            for j in range(n):
                for l in range(j):
                    if not independent_traces(traces[i][j], traces[k][l]):
                        ok = False
        if not ok:
            continue
        rows = t.monoid.empty_trace()
        for i in range(m):
            for j in range(n):
                rows = rows * traces[i][j]
        if rows != t:
            continue
        cols = t.monoid.empty_trace()
        for j in range(n):
            for i in range(m):
                cols = cols * traces[i][j]
        if cols != t:
            continue
        seen.add(key)
        out.append(traces)
    return out


def reference_canon(monoid, atoms):
    """Lexicographic normal form by rescanning, a reference for canon.

    Picks, again and again, the least atom with no earlier dependent
    atom left; cubic in the number of atoms.
    """
    remaining = list(atoms)
    out = []
    while remaining:
        best = None
        for idx, atom in enumerate(remaining):
            if any(
                not monoid.independent(prev.vertex, atom.vertex)
                for prev in remaining[:idx]
            ):
                continue
            key = monoid.atom_key(atom)
            if best is None or key < best[0]:
                best = (key, idx)
        out.append(remaining.pop(best[1]))
    return Trace(monoid, tuple(out))


def _factor_pairs(t):
    """All position pairs (p, q) forming a rewritable factor [ab].

    p, q carry same-vertex atoms, consecutive among that vertex's
    positions, with nothing strictly between them in the dependence
    order.
    """
    below = t.order()
    by_vertex = {}
    for pos, atom in enumerate(t.atoms):
        by_vertex.setdefault(atom.vertex, []).append(pos)
    n = len(t.atoms)
    pairs = []
    for positions in by_vertex.values():
        for p, q in zip(positions, positions[1:]):
            blocked = any(
                p in below[r] and r in below[q]
                for r in range(n)
                if r != p and r != q
            )
            if not blocked:
                pairs.append((p, q))
    return pairs


def reference_nf_R(t, rng=None):
    """R normal form by rewriting one redex at a time, a reference for nf_R.

    With rng given, redexes are chosen at random instead of first-found;
    confluence says the result is the same either way.
    """
    cur = t
    while True:
        pairs = _factor_pairs(cur)
        if not pairs:
            return cur
        if rng is not None:
            p, q = pairs[rng.randrange(len(pairs))]
        else:
            p, q = pairs[0]
        merged = cur.monoid.atom_mul(cur.atoms[p], cur.atoms[q])
        atoms = list(cur.atoms)
        if merged is None:
            del atoms[q]
            del atoms[p]
        else:
            atoms[p] = merged
            del atoms[q]
        cur = reference_canon(cur.monoid, atoms)


def shuffled(monoid, word, rng):
    """word after random swaps of adjacent commuting letters."""
    word = list(word)
    for _ in range(len(word)):
        i = rng.randrange(len(word) - 1)
        v1, v2 = (monoid.letter_map[a] for a in word[i:i + 2])
        if monoid.independent(v1, v2):
            word[i], word[i + 1] = word[i + 1], word[i]
    return tuple(word)


def free_z2_z3():
    return TraceMonoid([cyclic_group(2, "a"), cyclic_group(3, "b")], [])


def direct_z2_z2():
    return TraceMonoid([cyclic_group(2, "a"), cyclic_group(2, "b")], [(0, 1)])


def path_p3():
    return TraceMonoid(
        [cyclic_group(2, "a"), cyclic_group(2, "b"), cyclic_group(2, "c")],
        [(0, 1), (1, 2)],
    )


def path_p4():
    return TraceMonoid(
        [cyclic_group(2, "a"), cyclic_group(2, "b"), cyclic_group(2, "c"),
         cyclic_group(2, "d")],
        [(0, 1), (1, 2), (2, 3)],
    )


def test_canon_commuting_pair():
    M = direct_z2_z2()
    assert M.trace_from_word(("b", "a")) == M.trace_from_word(("a", "b"))


def test_canon_dependent_pair():
    M = free_z2_z3()
    assert M.trace_from_word(("b", "a")) != M.trace_from_word(("a", "b"))


def test_canon_path_nonadjacent_dependent():
    M = path_p3()
    # vertices 0 and 2 are not adjacent, so a and c do not commute
    assert M.trace_from_word(("a", "c")) != M.trace_from_word(("c", "a"))
    # but a and b do
    assert M.trace_from_word(("a", "b")) == M.trace_from_word(("b", "a"))


def test_nf_R_examples():
    M = direct_z2_z2()
    t = M.trace_from_word(("a", "b", "a"))
    assert nf_R(t) == M.trace_from_word(("b",))
    assert nf_R(M.trace_from_word(("a", "a"))) == M.empty_trace()
    M2 = free_z2_z3()
    irr = M2.trace_from_word(("a", "b"))
    assert nf_R(irr) == irr


def test_nf_R_idempotent_and_confluent_random():
    rng = random.Random(11)
    monoids = [free_z2_z3(), direct_z2_z2(), path_p3()]
    for _ in range(120):
        M = rng.choice(monoids)
        letters = sorted(M.alphabet)
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 9)))
        t = M.trace_from_word(word)
        nf = nf_R(t)
        assert nf_R(nf) == nf
        for _ in range(3):
            assert reference_nf_R(t, rng=rng) == nf


def test_normal_forms_match_reference_on_long_words():
    """canon, nf_R and the word problem agree with the references."""
    rng = random.Random(41)
    nested = GraphProductBackend(
        [cyclic_group(2, "p"), cyclic_group(3, "q")], []
    )
    backends = [
        GraphProductBackend(path_p3().vertices, [(0, 1), (1, 2)]),
        GraphProductBackend(direct_z2_z2().vertices, [(0, 1)]),
        GraphProductBackend(free_z2_z3().vertices, []),
        GraphProductBackend(
            [nested, cyclic_group(2, "a"), IntegerGroup("z")], [(0, 1)]
        ),
    ]
    for backend in backends:
        M = backend.monoid
        letters = sorted(M.alphabet)
        identities = 0
        for k in range(6):
            word = tuple(
                rng.choice(letters) for _ in range(rng.randrange(60, 101))
            )
            if k % 2:
                # an identity: half the word times the inverse of a copy
                # of it with commuting letters swapped
                half = word[:len(word) // 2]
                word = half + invert_word(shuffled(M, half, rng))
            atoms = M.atoms_from_word(word)
            t = M.canon(atoms)
            assert t == reference_canon(M, atoms), word
            assert t == M.trace_from_word(shuffled(M, word, rng)), word
            nf = reference_nf_R(t)
            assert nf_R(t) == nf, word
            assert has_redex(t) == bool(_factor_pairs(t)), word
            assert backend.elem_from_word(word) == nf, word
            assert backend.word_problem(word) == (not nf.atoms), word
            identities += backend.word_problem(word)
        assert identities >= 3


def test_normal_forms_make_linearly_many_independence_checks():
    """canon and nf_R ask O(n |V|) independence questions; alpha one set."""
    M = path_p3()
    calls = 0
    independent = M.independent

    def counting(v1, v2):
        nonlocal calls
        calls += 1
        return independent(v1, v2)

    M.independent = counting
    letters = sorted(M.alphabet)
    rng = random.Random(43)
    word = tuple(rng.choice(letters) for _ in range(300))
    t = M.trace_from_word(word)
    nf = nf_R(t)
    assert len(t.atoms) == 300 and len(nf.atoms) < 300
    assert 0 < calls <= 3 * 300 * len(M.vertices)
    calls = 0
    assert M.alpha() == 2
    first = calls
    assert M.alpha() == 2
    assert calls == first > 0


def reference_alpha(monoid):
    """Largest clique size, checking every vertex subset of every size."""
    n = len(monoid.vertices)
    best = 1 if n else 0
    for size in range(2, n + 1):
        for combo in itertools.combinations(range(n), size):
            if all(monoid.independent(a, b)
                   for a, b in itertools.combinations(combo, 2)):
                best = size
    return best


def test_alpha_matches_the_search_over_every_subset():
    z2 = [cyclic_group(2, g) for g in "abcd"]
    for monoid, expected in (
        (TraceMonoid(z2, [(0, 1), (1, 2), (2, 3)]), 2),  # path P4
        (TraceMonoid(z2[:2] + [cyclic_group(3, "c")], [(0, 1)]), 2),
        (TraceMonoid(z2, []), 1),  # a free product
        (TraceMonoid(z2, [(0, 1), (0, 2), (1, 2), (2, 3)]), 3),
    ):
        assert monoid.alpha() == reference_alpha(monoid) == expected


def test_alpha_stops_at_the_first_size_without_a_clique():
    """A 40-vertex free product has no clique of size 2; searching every
    subset would take about 2^40 independence checks."""
    n = 40
    M = TraceMonoid([cyclic_group(2, f"a{k}") for k in range(n)], [])
    calls = 0
    independent = M.independent

    def counting(v1, v2):
        nonlocal calls
        calls += 1
        return independent(v1, v2)

    M.independent = counting
    assert M.alpha() == 1
    assert calls <= n * n


def test_cancellativity_samples():
    rng = random.Random(13)
    M = path_p3()
    letters = sorted(M.alphabet)
    for _ in range(60):
        u = M.trace_from_word(tuple(rng.choice(letters) for _ in range(3)))
        v = M.trace_from_word(tuple(rng.choice(letters) for _ in range(3)))
        s = M.trace_from_word(tuple(rng.choice(letters) for _ in range(4)))
        t = M.trace_from_word(tuple(rng.choice(letters) for _ in range(4)))
        if (u * s * v) == (u * t * v):
            assert s == t


def test_prefix_count():
    M = direct_z2_z2()
    assert prefix_count(M.trace_from_word(("a", "b"))) == 4
    M2 = free_z2_z3()
    assert prefix_count(M2.trace_from_word(("a", "b"))) == 3
    # E empty: always n+1
    rng = random.Random(17)
    letters = sorted(M2.alphabet)
    for _ in range(30):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 8)))
        t = M2.trace_from_word(word)
        assert prefix_count(t) == len(t.atoms) + 1


def test_prefix_count_clique_bound():
    rng = random.Random(23)
    M = path_p3()
    letters = sorted(M.alphabet)
    alpha = M.alpha()
    assert alpha == 2
    for _ in range(40):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 8)))
        t = M.trace_from_word(word)
        assert prefix_count(t) <= (len(t.atoms) + 1) ** alpha


def test_connected_components():
    M = direct_z2_z2()
    t = M.trace_from_word(("a", "b"))
    comps = connected_components(t)
    assert sorted(len(c.atoms) for c in comps) == [1, 1]
    assert not is_connected(t)
    M2 = free_z2_z3()
    assert is_connected(M2.trace_from_word(("a", "b")))
    assert connected_components(M2.empty_trace()) == []


def test_is_well_behaved():
    M = free_z2_z3()
    assert is_well_behaved(M.trace_from_word(("a", "b")))
    assert not is_well_behaved(M.trace_from_word(("a", "b", "a")))
    assert not is_well_behaved(M.trace_from_word(("a",)))


def test_square_criterion_random():
    """If u and u^2 are irreducible then all small powers are."""
    rng = random.Random(29)
    monoids = [free_z2_z3(), path_p3()]
    checked = 0
    while checked < 60:
        M = rng.choice(monoids)
        letters = sorted(M.alphabet)
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 5)))
        u = M.trace_from_word(word)
        if not u.atoms or has_redex(u) or has_redex(u.pow(2)):
            continue
        checked += 1
        for m in range(3, 9):
            assert not has_redex(u.pow(m)), (word, m)


def test_power_presentation_peeling():
    M = free_z2_z3()
    u = M.trace_from_word(("a", "b", "a"))
    s, parts, t = power_presentation(u)
    assert s == M.trace_from_word(("a",))
    assert t == M.trace_from_word(("a",))
    assert [p.atoms for p in parts] == [M.trace_from_word(("b",)).atoms]


def test_power_presentation_well_behaved_fixed_point():
    M = free_z2_z3()
    u = M.trace_from_word(("a", "b"))
    s, parts, t = power_presentation(u)
    assert s == M.empty_trace() and t == M.empty_trace()
    assert parts == [u]


def test_power_presentation_equality_and_bounds():
    rng = random.Random(31)
    monoids = [free_z2_z3(), direct_z2_z2(), path_p3()]
    for _ in range(60):
        M = rng.choice(monoids)
        letters = sorted(M.alphabet)
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 7)))
        u = M.trace_from_word(word)
        s, parts, t = power_presentation(u)
        if M.edges == set():
            assert len(parts) <= 1
        for m in range(6):
            expected = nf_R(u.pow(m))
            prod = s
            for p in parts:
                prod = prod * p.pow(m)
            prod = prod * t
            assert nf_R(prod) == expected, (word, m)


def test_levi_counts():
    M = direct_z2_z2()
    t = M.trace_from_word(("a", "b"))
    grids = levi_decompositions(t, 2, 1)
    assert len(grids) == 4
    M2 = free_z2_z3()
    t2 = M2.trace_from_word(("a", "b"))
    grids2 = levi_decompositions(t2, 2, 1)
    assert len(grids2) == 3
    trivial = levi_decompositions(M2.empty_trace(), 2, 2)
    assert len(trivial) == 1


def test_levi_grid_conditions():
    M = path_p3()
    t = M.trace_from_word(("a", "b", "c"))
    for grid in levi_decompositions(t, 2, 2):
        prod = M.empty_trace()
        for row in grid:
            for w in row:
                prod = prod * w
        assert prod == t


def test_project_pair():
    M = path_p3()
    t = M.trace_from_word(("a", "b", "c"))
    assert [a.vertex for a in project_pair(t, 0, 1)] == [0, 1]
    assert project_pair(M.empty_trace(), 0, 1) == ()


@pytest.mark.parametrize("monoid, pairs", [
    # b commutes with a and c, so its one-vertex projection stays
    (path_p3, ((1, 1), (0, 2))),
    (free_z2_z3, ((0, 1),)),
    (path_p4, ((0, 2), (0, 3), (1, 3))),
    (direct_z2_z2, ((0, 0), (1, 1))),
])
def test_projection_pairs_skip_implied_projections(monoid, pairs):
    assert monoid().projection_pairs() == pairs


def test_equality_via_projections():
    rng = random.Random(37)
    for M in (path_p3(), free_z2_z3(), path_p4()):
        letters = sorted(M.alphabet)
        for _ in range(100):
            w1 = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
            w2 = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
            t1 = M.trace_from_word(w1)
            t2 = M.trace_from_word(w2)
            assert (t1 == t2) == equal_by_projections(t1, t2), (w1, w2)
            assert (t1 == t2) == equal_by_projections(
                t1, t2, M.projection_pairs()), (w1, w2)


def test_inverse_and_multiplication():
    M = free_z2_z3()
    t = M.trace_from_word(("a", "b", "b"))
    assert nf_R(t * t.inv()) == M.empty_trace()
    assert nf_R(t.inv() * t) == M.empty_trace()
