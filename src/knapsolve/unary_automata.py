"""Automata support for two-dimensional word knapsack.

To solve p u^x s = q v^y t over words, read the automata for p u^* s
and q v^* t in lockstep, ticking once per pair of equal letters, read
off the accepted lengths as arithmetic progressions, and convert each
length back to the (x, y) pair it determines.  The HNN solver reads
its two sides with the same lockstep product, tracking a connecting
element in the product's register.  The length set of a
unary automaton is extracted from the determinized subset trajectory:
it is eventually periodic, with the tail giving singletons and the
cycle giving progressions.
"""

import math

from .errors import BudgetExceededError, InputError

#: the single letter of unary automata
TICK = object()

SUBSET_TRAJECTORY_CAP = 100_000


class Nfa:
    """States, labeled transitions (label None = epsilon), initials, finals."""

    def __init__(self, states, transitions, initials, finals):
        self.states = set(states)
        self.transitions = []
        #: source state -> its (label, destination) pairs
        self._out = {}
        for src, label, dst in transitions:
            if src not in self.states or dst not in self.states:
                raise InputError("transition references unknown state")
            self.transitions.append((src, label, dst))
            self._out.setdefault(src, []).append((label, dst))
        self.initials = set(initials)
        self.finals = set(finals)
        if not self.initials <= self.states or not self.finals <= self.states:
            raise InputError("initial/final state not in state set")

    def eps_closure(self, subset):
        out = set(subset)
        frontier = list(subset)
        while frontier:
            state = frontier.pop()
            for label, dst in self._out.get(state, ()):
                if label is None and dst not in out:
                    out.add(dst)
                    frontier.append(dst)
        return frozenset(out)

    def step(self, subset, label):
        return {
            dst
            for src in subset
            for lab, dst in self._out.get(src, ())
            if lab == label
        }


def loop_language_nfa(p, u, s):
    """An automaton for {p u^x s : x >= 0} with |p|+|u|+|s| states."""
    p, u, s = tuple(p), tuple(u), tuple(s)
    if not u:
        raise InputError("loop_language_nfa: empty loop word")

    def pstate(i):
        return ("p", i) if i < len(p) else ("u", 0)

    states = [("p", i) for i in range(len(p))]
    states += [("u", i) for i in range(len(u))]
    states += [("s", i) for i in range(1, len(s) + 1)]
    transitions = []
    for i, letter in enumerate(p):
        transitions.append((pstate(i), letter, pstate(i + 1)))
    for i, letter in enumerate(u):
        transitions.append((("u", i), letter, ("u", (i + 1) % len(u))))
    for i, letter in enumerate(s):
        src = ("u", 0) if i == 0 else ("s", i)
        transitions.append((src, letter, ("s", i + 1)))
    final = ("s", len(s)) if s else ("u", 0)
    return Nfa(states, transitions, [pstate(0)], [final])


def lockstep_product(n1, n2, moves, starts, ends):
    """The unary automaton of n1 and n2 read in lockstep, with a register.

    moves(x, y) yields (r, label, r2) for a step that reads x on n1 and
    y on n2: the register goes from r to r2 and the step emits label,
    TICK or None (epsilon).  States are (register, p1, p2); runs start
    at a register in starts and end at one in ends.
    """
    transitions = []
    for p1, x, q1 in n1.transitions:
        for p2, y, q2 in n2.transitions:
            for r, label, r2 in moves(x, y):
                transitions.append(((r, p1, p2), label, (r2, q1, q2)))
    initials = {(r, p1, p2) for r in starts
                for p1 in n1.initials for p2 in n2.initials}
    finals = {(r, p1, p2) for r in ends for p1 in n1.finals for p2 in n2.finals}
    states = initials | finals
    for src, _label, dst in transitions:
        states.add(src)
        states.add(dst)
    return Nfa(states, transitions, initials, finals)


def unary_length_set(nfa):
    """Accepted lengths of a unary automaton as sorted pairs (b, c).

    A pair stands for the progression {b + c z : z >= 0}, a singleton
    when c = 0.  Follows the subset trajectory S_0, S_1, ... until the first repeat;
    lengths before the repeat start are singletons, accepted residues
    within the cycle become progressions with the cycle length as
    period.
    """
    subset = nfa.eps_closure(nfa.initials)
    seen = {subset: 0}
    trajectory = [subset]
    while True:
        subset = nfa.eps_closure(nfa.step(subset, TICK))
        if subset in seen:
            tail = seen[subset]
            cycle = len(trajectory) - tail
            break
        seen[subset] = len(trajectory)
        trajectory.append(subset)
        if len(trajectory) > SUBSET_TRAJECTORY_CAP:
            raise BudgetExceededError(
                "subset trajectory", SUBSET_TRAJECTORY_CAP
            )
    pairs = []
    for length, subset in enumerate(trajectory):
        if subset & nfa.finals:
            if length < tail:
                pairs.append((length, 0))
            else:
                pairs.append((length, cycle))
    return pairs


def lengths_to_xy(progressions, ps_len, u_len, qt_len, v_len):
    """Convert accepted lengths to (x, y)-lines.

    A length ell determines x = (ell - |ps|)/|u| and y = (ell - |qt|)/|v|.
    A progression whose step is not divisible by both |u| and |v| is
    first refined to the step lcm(c0, |u|, |v|); progressions failing
    the sign or divisibility filters then contain no valid lengths and
    are dropped.  Returns lines (a, b, c, d) denoting
    {(a + b z, c + d z) : z >= 0}.
    """
    if u_len < 1 or v_len < 1:
        raise InputError("lengths_to_xy needs nonempty loop words")
    refined = []
    for b0, c0 in progressions:
        if c0 and (c0 % u_len or c0 % v_len):
            step = math.lcm(c0, u_len, v_len)
            refined.extend((b0 + c0 * k, step) for k in range(step // c0))
        else:
            refined.append((b0, c0))
    lines = set()
    for b0, c0 in refined:
        if b0 < ps_len or b0 < qt_len:
            continue
        if (b0 - ps_len) % u_len or (b0 - qt_len) % v_len:
            continue
        if c0 % u_len or c0 % v_len:
            continue
        lines.add(
            (
                (b0 - ps_len) // u_len,
                c0 // u_len,
                (b0 - qt_len) // v_len,
                c0 // v_len,
            )
        )
    return sorted(lines)


def word_pair_power_solutions(p, u, s, q, v, t):
    """Lines for {(x, y) : p u^x s = q v^y t as words}.

    The full pipeline: loop automata, their lockstep product on equal
    letters, length progressions, division back to exponents.  For a given accepted
    length both exponents are forced, so acceptance of the intersection
    at that length is exactly word equality.
    """
    a1 = loop_language_nfa(p, u, s)
    a2 = loop_language_nfa(q, v, t)

    def moves(x, y):
        return ((None, TICK, None),) if x == y else ()

    progressions = unary_length_set(
        lockstep_product(a1, a2, moves, (None,), (None,)))
    return lengths_to_xy(
        progressions, len(p) + len(s), len(u), len(q) + len(t), len(v)
    )
