"""Loop automata, unary length sets, and the 2-dimensional word pipeline."""

import random

import pytest

from knapsolve.errors import InputError
from knapsolve.unary_automata import (
    TICK,
    Nfa,
    lengths_to_xy,
    lockstep_product,
    loop_language_nfa,
    unary_length_set,
    word_pair_power_solutions,
)


def accepts(nfa, word):
    """Whether nfa accepts word, by the subset construction."""
    subset = nfa.eps_closure(nfa.initials)
    for symbol in word:
        subset = nfa.eps_closure(nfa.step(subset, symbol))
        if not subset:
            return False
    return bool(subset & nfa.finals)


def in_progressions(pairs, length):
    """Whether length lies in one of the progressions {b + c z : z >= 0}."""
    return any(
        length == b if c == 0 else length >= b and (length - b) % c == 0
        for b, c in pairs
    )


def equal_letters(x, y):
    return ((None, TICK, None),) if x == y else ()


def test_loop_language_basic():
    nfa = loop_language_nfa((), ("a",), ())
    assert len(nfa.states) == 1
    for k in range(5):
        assert accepts(nfa, ("a",) * k)
    nfa2 = loop_language_nfa(("a",), ("b",), ())
    assert accepts(nfa2, ("a", "b", "b"))
    assert not accepts(nfa2, ("b",))
    assert not accepts(nfa2, ("a", "a"))
    with pytest.raises(InputError):
        loop_language_nfa(("a",), (), ())


def test_loop_language_random_membership():
    rng = random.Random(41)
    for _ in range(30):
        p = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 4)))
        u = tuple(rng.choice("ab") for _ in range(rng.randrange(1, 4)))
        s = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 4)))
        nfa = loop_language_nfa(p, u, s)
        assert len(nfa.states) <= len(p) + len(u) + len(s)
        for x in range(11):
            assert accepts(nfa, p + u * x + s)


def test_unary_length_set_examples():
    loop = loop_language_nfa((), ("a",), ())
    unary = lockstep_product(loop, loop, equal_letters, (None,), (None,))
    assert unary_length_set(unary) == [(0, 1)]
    only3 = loop_language_nfa(("a", "a", "a"), ("a",), ())
    # accepts a^3 a^* ; restrict to exactly 3 with a 4-chain automaton
    chain = Nfa(
        range(4), [(i, TICK, i + 1) for i in range(3)], [0], [3]
    )
    assert list(unary_length_set(chain)) == [(3, 0)]
    stem_cycle = Nfa(
        range(3), [(0, TICK, 1), (1, TICK, 2), (2, TICK, 1)], [0], [1]
    )
    assert list(unary_length_set(stem_cycle)) == [(1, 2)]
    del only3


def test_unary_length_set_against_naive():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(1, 9)
        states = list(range(n))
        transitions = []
        for _ in range(rng.randrange(1, 2 * n + 2)):
            transitions.append(
                (rng.randrange(n), TICK, rng.randrange(n))
            )
        if rng.random() < 0.3:
            transitions.append((rng.randrange(n), None, rng.randrange(n)))
        initials = {rng.randrange(n)}
        finals = {rng.randrange(n) for _ in range(rng.randrange(1, 3))}
        nfa = Nfa(states, transitions, initials, finals)
        progs = unary_length_set(nfa)
        subset = nfa.eps_closure(nfa.initials)
        for length in range(200):
            accepted = bool(subset & nfa.finals)
            assert in_progressions(progs, length) == accepted, (
                transitions, length)
            subset = nfa.eps_closure(nfa.step(subset, TICK))


def test_lengths_to_xy():
    assert lengths_to_xy([(0, 1)], 0, 1, 0, 1) == [(0, 1, 0, 1)]
    # b below |ps| dropped
    assert lengths_to_xy([(1, 2)], 2, 1, 0, 1) == []
    # 2x = 3y
    assert lengths_to_xy([(0, 6)], 0, 2, 0, 3) == [(0, 3, 0, 2)]


def test_word_pair_pipeline_against_brute_force():
    rng = random.Random(47)
    for _ in range(40):
        def rw(lo, hi):
            return tuple(
                rng.choice("ab") for _ in range(rng.randrange(lo, hi))
            )

        p, s, q, t = rw(0, 3), rw(0, 3), rw(0, 3), rw(0, 3)
        u, v = rw(1, 4), rw(1, 4)
        lines = word_pair_power_solutions(p, u, s, q, v, t)
        expected = {
            (x, y)
            for x in range(16)
            for y in range(16)
            if p + u * x + s == q + v * y + t
        }
        got = set()
        for a, b, c, d in lines:
            z = 0
            while True:
                pt = (a + b * z, c + d * z)
                if pt[0] > 15 and pt[1] > 15:
                    break
                if pt[0] <= 15 and pt[1] <= 15:
                    got.add(pt)
                z += 1
                if b == 0 and d == 0:
                    break
        assert got == expected, (p, u, s, q, v, t)


def test_lockstep_product_tracks_a_register():
    # a^x against (a a)^y, the register counting ticks mod 3
    top = loop_language_nfa((), ("a",), ())
    bottom = loop_language_nfa((), ("a", "a"), ())

    def mod3(x, y):
        return [(r, TICK, (r + 1) % 3) for r in range(3)] if x == y else []

    for end in range(3):
        unary = lockstep_product(top, bottom, mod3, (0,), (end,))
        pairs = unary_length_set(unary)
        # accepted lengths are even (bottom) and end mod 3 (register)
        assert [n for n in range(30) if in_progressions(pairs, n)] == [
            n for n in range(30) if n % 2 == 0 and n % 3 == end]
