"""The guess-and-reduce driver shared by graph products and HNN-extensions.

Both solvers answer e = 1 with one scheme:

  1. rewrite every period into atomic or well-behaved parts via the
     group's power presentation and rename repeated variables apart
     (preprocess); the diagonal K ties the renamed copies together;
  2. make one item tuple in which every power stays open: an atomic
     power is an item of its vertex or base group, which the search may
     discharge alone, as the power being 1 in that group;
  3. search for reductions of that item tuple, once: constants
     split (in an HNN-extension only those with a stable letter),
     symbolic powers split into factors, neighbouring atoms merge or
     discharge into local constraints, matching factors cancel; the
     search runs to the scheme's ceilings on splits and atom creations.
     Where items do not commute (free products, HNN-extensions and
     amalgams) it is a span solver: a reduction is a non-crossing
     cancellation pattern, so it branches only on how the leftmost item
     is used up; as no tuple reaches itself, it solves every tuple once,
     in a plain memo.  Where they commute (graph products with edges
     that are not joins; a join is split into its direct factors
     before, see gp_solver) it is a depth-first search over states of
     items, factor counts and records, which drops a state reached
     again at no lower cost, judged as the span solver judges bundles;
  4. cut the factors of every well-behaved power into shapes, resolve
     the factors the search assigned a concrete value, solve matched
     factor pairs (the group's pair_lines gives the lines of one pair;
     pair_components combines them here) and direct-sum the sets of
     one outcome;
  5. take the union over the outcomes, keep its points on the diagonal
     K and project back to the variables of e.

One Limits object carries the budgets and the report of a solve, nested
solves (solve_local) included, whose searches draw on one states budget.
The report's complete flag turns false only when a cap below a ceiling
bound: a splits_budget refusing a split, or FACTOR_CAP doing so.

A group plugs in through a Scheme subclass and a ReductionSearchBase
subclass; everything else lives here once.
"""

import contextlib
import itertools

from .errors import BudgetExceededError
from .expr import Renaming, expr_from_entries
from .semilinear import DiophSolver, LinearSet, SemilinearSet
from .words import components, invert_word

SEARCH_STATES_CAP = 2_000_000
#: limit on nested span-solver entries, far above the 32 the benchmark's
#: instances reach; beyond it the search ends as a spent budget
SPAN_DEPTH_CAP = 250
#: limit on symbolic factors per power; a split it refuses clears complete
FACTOR_CAP = 3
#: the keys of every solve's report: counters start at 0, complete true
REPORT_KEYS = ("branches", "complete", "dioph_nodes", "grids", "pruned",
               "reductions", "states")


class Limits:
    """The budgets and the report of one solve, nested solves included.

    splits_budget caps the splits of each reduction search (None: the
    scheme's ceiling), states_budget the states of all of them together.
    report, the caller's diagnostics dict, is written only through here
    and holds every key of REPORT_KEYS from the start.
    solver is the one DiophSolver of the solve: every Diophantine system
    it meets, in nested solves too, shares its memo, which dies with
    this object.
    """

    def __init__(self, splits_budget, states_budget, report):
        self.splits_budget = splits_budget
        self.states_budget = states_budget
        self.report = {} if report is None else report
        for key in REPORT_KEYS:
            self.report.setdefault(key, True if key == "complete" else 0)
        self.states = 0
        self.solver = DiophSolver()

    def count(self, key, n=1):
        self.report[key] += n

    def run_search(self, search, items):
        """search.run(items); its states count even when a budget ends it."""
        try:
            return search.run(items)
        except BudgetExceededError:
            if search.states > search.states_cap:
                raise BudgetExceededError(
                    "reduction search states", self.states_budget) from None
            raise
        finally:
            self.states += search.states
            self.count("states", search.states)

    @contextlib.contextmanager
    def dioph(self):
        """The solve's DiophSolver; the nodes it explores in the block
        count, also when its cap ends a search."""
        before = self.solver.nodes
        try:
            yield self.solver
        finally:
            self.count("dioph_nodes", self.solver.nodes - before)


class Prepared:
    """Period/constant structure with atomic or well-behaved periods.

    powers[i] = (period, occurrence variable); tails[0] is the leading
    constant (the identity once folded into the last tail by
    conjugation) and tails[i+1] follows powers[i].  occ_vars lists every
    occurrence variable in order; free_occs are occurrences whose period
    is the identity; inputs holds the normal forms (period, tail) of the
    factors of e.
    """

    def __init__(self, powers, tails, occ_vars, free_occs, inputs):
        self.powers = powers
        self.tails = tails
        self.occ_vars = occ_vars
        self.free_occs = free_occs
        self.inputs = inputs


class Scheme:
    """What one group class supplies to solve_by_reduction.

    Subclasses set backend and one (the identity element) and define:

      normal(word), mul(x, y)     normal forms of words and products;
                                  elements have is_identity()
      presentation(u)             (s, parts, t) with u^m = s (prod of
                                  parts^m) t
      is_atomic(u)                u is an atomic period, not well-behaved
      atomic_item(i, u)           the search item of atomic power i
      max_splits(m), max_creations(m)
                                  completeness ceilings for m items
      search(powers, splits_cap, creation_cap, states_cap)
                                  a ReductionSearchBase
      local_solutions(rec, var_of, limits)
                                  the set of a local-constraint record
      factor_shapes(u, fids, assigns, pairs)
                                  (c, forms) cutting u^x into one form
                                  per factor id, x = c + the x_j
      match_value(u, form, value) the x with form(u^x) = value, or None
      pair_lines(powers, pair, form_l, form_r)
                                  the lines (a, b, c, d) of one pair
                                  record's two powers, given the open
                                  forms of its two factors

    limits is the solve's Limits.
    """

    def preprocess(self, e):
        """Rewrite e so that every period is atomic or well-behaved.

        Returns (prep, K) with sol(e) = (K cap sol(prep)) restricted to
        the variables of e; K has magnitude one and ties renamed
        occurrences of the same variable together.
        """
        renaming = Renaming(e.variables)
        powers = []
        free_occs = []
        inputs = []
        tails = [self.one]
        for period, var, tail in e.factors:
            u = self.normal(period)
            v = self.normal(tail)
            inputs.append((u, v))
            if u.is_identity():
                free_occs.append(renaming.fresh(var))
                tails[-1] = self.mul(tails[-1], v)
                continue
            s, parts, t = self.presentation(u)
            tails[-1] = self.mul(tails[-1], s)
            for part in parts:
                powers.append((part, renaming.fresh(var)))
                tails.append(self.one)
            tails[-1] = self.mul(t, v)
        if powers and not tails[0].is_identity():
            # a leading constant conjugates away: w e' = 1 iff e' w = 1
            tails[-1] = self.mul(tails[-1], tails[0])
            tails[0] = self.one
        K = renaming.diagonal()
        assert K.magnitude() <= 1
        prep = Prepared(powers, tails, tuple(renaming.names), free_occs, inputs)
        return prep, K

    def pair_components(self, wb, order, comp_pairs, reduced):
        """LinearSets over a pair-connected group of powers.

        reduced[i] lists power i's groups (open forms, constants) in
        first-occurrence order: the open forms as (factor id, form)
        pairs, and the distinct constants c of the options with those
        forms, which are added at the end.  A depth-first join picks one
        group per power of order, in the order itertools.product visits
        them.  It solves each pair record where the later of its two
        powers is picked, once per pair of forms (the forms are
        numbered), and cuts the branch at a record without lines; the
        groups that pass a depth are kept per choice of the earlier
        forms its records read.  A leaf whose lines and constants repeat
        an earlier leaf's adds only duplicates, so it is skipped; the
        components keep their first-occurrence order.
        """
        forms = []
        number = {}
        groups = []
        depth_of = {}
        for depth, i in enumerate(order):
            groups.append([])
            for of, cs in reduced[i]:
                group_ids = {}
                for fid, form in of:
                    if form not in number:
                        number[form] = len(forms)
                        forms.append(form)
                    group_ids[fid] = number[form]
                    depth_of[fid] = depth
                groups[-1].append((group_ids, cs))
        solved_at = [[] for _ in order]
        for k, pair in enumerate(comp_pairs):
            solved_at[max(depth_of[pair[0]], depth_of[pair[3]])].append(k)
        reads = [tuple(dict.fromkeys(
            fid for k in ks for fid in (comp_pairs[k][0], comp_pairs[k][3])
            if depth_of[fid] < depth
        )) for depth, ks in enumerate(solved_at)]

        memo = {}
        passed = [{} for _ in order]
        ids = {}  # factor id -> form number, along the current branch
        lines = [None] * len(comp_pairs)
        constants = [None] * len(order)
        leaves = set()
        components = []

        def passing(depth):
            """The groups of depth whose records all have lines, with
            those lines, given the earlier forms in ids."""
            out = []
            for group_ids, cs in groups[depth]:
                ids.update(group_ids)
                got = []
                for k in solved_at[depth]:
                    pair = comp_pairs[k]
                    key = (k, ids[pair[0]], ids[pair[3]])
                    if key not in memo:
                        memo[key] = tuple(self.pair_lines(
                            wb, pair, forms[key[1]], forms[key[2]]))
                    if not memo[key]:
                        break
                    got.append(memo[key])
                else:
                    out.append((group_ids, cs, got))
            return out

        def join(depth):
            if depth == len(order):
                leaf = (tuple(lines), tuple(constants))
                if leaf in leaves:
                    return
                leaves.add(leaf)
                pair_lines = [(pair[1], pair[4], got)
                              for pair, got in zip(comp_pairs, lines)]
                for base, periods in pair_line_sets(order, pair_lines):
                    for cs in itertools.product(*constants):
                        components.append(LinearSet(
                            tuple(c + b for c, b in zip(cs, base)), periods
                        ))
                return
            context = tuple(ids[fid] for fid in reads[depth])
            if context not in passed[depth]:
                passed[depth][context] = passing(depth)
            for group_ids, cs, got in passed[depth][context]:
                ids.update(group_ids)
                constants[depth] = cs
                for k, record_lines in zip(solved_at[depth], got):
                    lines[k] = record_lines
                join(depth + 1)

        join(0)
        return components


def solve_by_reduction(scheme, e, limits):
    """Solution set of e = 1 over the group of scheme."""
    prep, K = scheme.preprocess(e)
    if not prep.powers:
        # every period is the identity, so e = 1 for all exponents or none
        return (SemilinearSet.universe(e.variables)
                if prep.tails[0].is_identity()
                else SemilinearSet.empty(e.variables))

    period = {i: u for i, (u, _var) in enumerate(prep.powers, 1)}
    var_of = {i: var for i, (_u, var) in enumerate(prep.powers, 1)}
    wb = {i: u for i, u in period.items() if not scheme.is_atomic(u)}

    constrained = [name for name in prep.occ_vars if name not in prep.free_occs]
    assert constrained, "every power contributes a constrained occurrence"
    items = []
    for i in period:
        items.append(("W", i) if i in wb else scheme.atomic_item(i, period[i]))
        if not prep.tails[i].is_identity():
            items.append(("C", prep.tails[i]))

    m = len(items)
    splits_cap = scheme.max_splits(m)
    budgeted = (limits.splits_budget is not None
                and limits.splits_budget < splits_cap)
    if budgeted:
        splits_cap = limits.splits_budget
    search = scheme.search(wb, splits_cap, scheme.max_creations(m),
                           limits.states_budget - limits.states)
    limits.count("branches")
    results = limits.run_search(search, tuple(items))
    if search.refused_split or (budgeted and search.splits_cap_bound):
        limits.report["complete"] = False
    limits.count("reductions", len(results))
    # the components of every outcome, made into one set at the end,
    # which keeps the first of equal ones as union would
    comps = []
    for records, orders in results.items():
        sets = _assemble_outcome(scheme, wb, var_of, records, orders, limits)
        if sets is not None:
            comps += direct_sum_all(sets, constrained).components

    total = SemilinearSet(tuple(constrained), comps)
    for name in prep.free_occs:
        total = total.direct_sum(SemilinearSet.universe((name,)))
    with limits.dioph() as solver:
        return total.on_diagonal(K, solver).restrict(e.variables)


def direct_sum_all(sets, names):
    """Direct-sum disjoint-variable sets and align to the given order."""
    out = None
    for piece in sets:
        out = piece if out is None else out.direct_sum(piece)
    assert out is not None, "an outcome or guess leaf always has a set"
    missing = [n for n in names if n not in set(out.vars)]
    assert not missing, f"outcome left variables unconstrained: {missing}"
    return out._aligned_to(tuple(names))


def _assemble_outcome(scheme, wb, var_of, records, orders, limits):
    """Turn one reduction outcome into per-variable semilinear sets.

    Returns a list of SemilinearSets over disjoint variable groups, or
    None if the outcome is contradictory.
    """
    zero_powers = set()
    local = []
    assigns = {}
    pairs = []
    for rec in records:
        if rec[0] == "zero":
            zero_powers.add(rec[1])
        elif rec[0] == "assign":
            assigns[rec[1]] = rec[2:]
        elif rec[0] == "pair":
            pairs.append(rec[1:])
        else:
            local.append(rec)

    # a power without shapes ends the outcome before its nested solves
    active = {i: fids for i, fids in orders.items() if fids}
    shapes = {}
    for i, fids in active.items():
        shapes[i] = scheme.factor_shapes(wb[i], fids, assigns, pairs)
        if not shapes[i]:
            return None

    sets = [SemilinearSet.point((var_of[i],), (0,))
            for i in sorted(zero_powers)]
    for rec in local:
        sols = scheme.local_solutions(rec, var_of, limits)
        if sols.is_empty_representation():
            return None
        sets.append(sols)

    # resolve assigned factors per power, leaving only paired ones open,
    # and group each power's options by their open forms, once for the
    # pair resolution below
    paired_fids = set()
    for fid_l, _il, _xl, fid_r, _ir, _xr in pairs:
        paired_fids.add(fid_l)
        paired_fids.add(fid_r)
    reduced = {}
    for i, fids in active.items():
        groups = {}
        for c, forms in shapes[i]:
            open_forms = []
            for fid, form in zip(fids, forms):
                if fid in assigns:
                    x = scheme.match_value(wb[i], form, assigns[fid][-1])
                    if x is None:
                        break
                    c += x
                else:
                    assert fid in paired_fids, "every factor id is consumed"
                    open_forms.append((fid, form))
            else:
                groups.setdefault(tuple(open_forms), {})[c] = None
        if not groups:
            return None
        reduced[i] = [(of, tuple(cs)) for of, cs in groups.items()]
    limits.count("grids")

    # pair records couple at most two powers at a time; solve the pair
    # relation per connected component of powers and direct-sum the rest
    for order in components(sorted(active), ((pr[1], pr[4]) for pr in pairs)):
        comp_pairs = [pr for pr in pairs if pr[1] in order]
        group_set = SemilinearSet(
            tuple(var_of[i] for i in order),
            scheme.pair_components(wb, order, comp_pairs, reduced))
        if group_set.is_empty_representation():
            return None
        sets.append(group_set)
    return sets


def solve_local(group, entries, limits, target=()):
    """Solutions of a product of entries equal to target inside group.

    group is a vertex, base, join factor or finite-extension subgroup;
    entries are ("e", word) constants and ("p", var, word) powers
    word^var, at least one power among them; target is a word.  The
    group's own solve answers the knapsack expression of the product
    under the caller's Limits, so its counters add to the caller's.
    """
    e = expr_from_entries(list(entries) + [("e", invert_word(target))])
    return group.solve(e, limits)


def restrict_lines(lines, need_x, need_y):
    """Keep only line points with x >= 1 / y >= 1 where required."""
    out = set()
    for a0, b0, c0, d0 in lines:
        low_x, low_y = need_x and a0 < 1, need_y and c0 < 1
        if (low_x and b0 == 0) or (low_y and d0 == 0):
            continue
        if low_x or low_y:
            # bases are >= 0, so one step lifts every required zero
            a0, c0 = a0 + b0, c0 + d0
        out.add((a0, b0, c0, d0))
    return sorted(out)


def pair_line_sets(order, pair_lines):
    """Yield (base, periods) for each choice of one line per matched pair.

    pair_lines holds (iL, iR, lines); a line (a, b, c, d) stands for the
    exponents (a + b z, c + d z) of powers iL and iR.  base is indexed
    like order and sums the chosen a and c.
    """
    for choice in itertools.product(*(lines for _il, _ir, lines in pair_lines)):
        shift = {i: 0 for i in order}
        periods = []
        for (i_l, i_r, _), (a, b, c, d) in zip(pair_lines, choice):
            shift[i_l] += a
            shift[i_r] += c
            vec = {i: 0 for i in order}
            vec[i_l] += b
            vec[i_r] += d
            if any(vec.values()):
                periods.append(tuple(vec[i] for i in order))
        yield tuple(shift[i] for i in order), periods


#: entry kinds of the span solver: the reductions of a whole tuple, and
#: the ways to reduce a prefix of a tuple until one item is exposed
_SOLVE, _LEAD = "solve", "lead"
#: bundle keys of reductions a cap dropped; they keep only their costs,
#: so that the search can tell whether the cap cost a reduction
_OVER_SPLITS, _OVER_FACTORS = "over splits", "over factors"
_OVER = (_OVER_SPLITS, _OVER_FACTORS)
_NOTHING = ((), ())
#: the costs of a bundle that spent nothing, and of one split
_FREE, _ONE_SPLIT = ((0, ()),), ((1, ()),)
#: the bundles of the empty tuple, which is reduced already
_EMPTY_SOLVED = {_NOTHING: _FREE}
#: the memo's mark of an entry that is being solved
_SOLVING = "solving"
#: factor ids of the left and the right item that a move uses up
_LEFT, _RIGHT = "left", "right"


class ReductionSearchBase:
    """Enumerates reductions of refinements of an item tuple.

    powers maps well-behaved power indices to their periods.  A subclass
    writes its moves once, as generators over items:

      unary_moves(item)           (out, records, split): item becomes
                                  the items out; split moves come last
      binary_moves(left, right)   (out, records, key): two neighbours
                                  become out; key is the creation key
                                  of an atom merge, or None
      starts_ternary(x, middle), ternary_moves(x, middle, y)
                                  whether three neighbours can meet,
                                  and (out, records) when they do; a
                                  search without them leaves
                                  ternary_moves None

    and factor(i, fid), the factor item of power i.  Factor items ("F",
    i, fid, ...) carry their id at position 2 (None in a new factor),
    ("assign", fid, i, ...) records at position 1 and ("pair", fidL, iL,
    a, fidR, iR, b) records at positions 1 and 4.

    run() returns {records: orders} over the reductions with at most
    splits_cap splits, creation_cap atom creations per key and FACTOR_CAP
    factors per power; records is a tuple in the order the search first
    met them, and orders maps each power index to its factor ids, which
    are numbered by power and then from left to right.
    The search, not the moves, applies the caps: splits_cap_bound turns
    true when splits_cap refuses a split, and refused_split when
    FACTOR_CAP does.

    Both searches hold records as small ids, each record interned once
    per search in the order it is first met; a record with renumbered
    factor ids is looked up by (id, factor ids), so no search hashes a
    record again, and run() turns the ids back into records once.

    Where items do not commute, run() is a span solver.  The leftmost
    item of a tuple is used up either by a unary move or by a binary or
    ternary move with the items that prefixes to its right reduce to;
    every tuple is solved once, into bundles of record ids, factor counts
    per power and Pareto-minimal (splits, creations), and the caps are
    checked where bundles combine.  There a split that FACTOR_CAP
    refuses is noted only when the path to it stays within the other
    caps, and states counts the tuples solved.  The moves must never
    lead a tuple back to itself.  Where items commute (use_dfs), run() is
    a depth-first search over states (items, counts, record ids), counts
    being the factor counts per opened power as in the bundle keys, and
    states counts the states expanded.
    """

    use_dfs = False
    ternary_moves = None

    def __init__(self, powers, splits_cap, creation_cap, states_cap):
        self.powers = powers
        self.splits_cap = splits_cap
        self.creation_cap = creation_cap
        self.states_cap = states_cap
        self.refused_split = False
        self.splits_cap_bound = False
        self.states = 0
        self.seen = {}
        self.results = {}

    def canon_items(self, items):
        """Normal form of the item tuple; items do not commute here."""
        return items

    def interaction_pairs(self, items):
        """Index pairs that can meet in a binary move: here neighbours."""
        return [(i, i + 1) for i in range(len(items) - 1)]

    def run(self, items):
        items = tuple(items)
        self._opened = [i for i in sorted(self.powers) if ("W", i) in items]
        self._moves = {}
        # records as ids in first-met order, the factor slots (fid,
        # power) of each, and the ids of records with renumbered slots
        self._ids, self._records, self._slots, self._retagged = {}, [], [], {}
        try:
            if self.use_dfs:
                self._dfs(self.canon_items(items), (), frozenset(), (0, ()))
            else:
                self._span_run(items)
            records = self._records
            self.results = {tuple(map(records.__getitem__, ids)): orders
                            for ids, orders in self.results.items()}
        finally:
            # the moves of every item and pair met, and the record store;
            # free them with the search
            self._moves = self._ids = self._records = None
            self._slots = self._retagged = None
        return self.results

    def _zero_or_open(self, item):
        """Moves of an untouched power: it is zero, or one open factor."""
        i = item[1]
        yield (), (("zero", i),), False
        yield (self.factor(i, None),), (), False

    # -- depth-first search over commuting items ---------------------------

    def _dfs(self, items, counts, records, cost):
        """Expand the state (items, counts, records) reached at cost.

        Factor ids are canonical from the move that makes them, by power
        and then from left to right, before canon_items sorts the items,
        so each state has one key, and the counts give the orders.  cost
        is (splits, creations), the creations a sorted (key, count)
        tuple; the state is skipped when an earlier cost was no higher,
        as _no_more judges bundle costs.
        """
        prior = self.seen.setdefault((items, counts, records), [])
        for old in prior:
            if _no_more(old, cost):
                return
        prior.append(cost)
        self.states += 1
        if self.states > self.states_cap:
            raise BudgetExceededError("reduction search states", self.states_cap)
        if not items:
            self.results.setdefault(tuple(sorted(records)),
                                    _orders(self._opened, counts))
            return
        self._expand(items, counts, records, cost)

    def _expand(self, items, counts, records, cost):
        """Recurse into every state one move away.

        The moves of an item or a pair do not depend on the state, so
        each search lists them once.
        """
        splits, creations = cost
        for pos, item in enumerate(items):
            unary = self._moves.get(item)
            if unary is None:
                unary = self._moves[item] = self._listed(self.unary_moves(item))
            for out, recs, split in unary:
                new_cost = cost
                if split:
                    if splits >= self.splits_cap:
                        self.splits_cap_bound = True
                        break
                    if item[0] == "F" and dict(counts)[item[1]] >= FACTOR_CAP:
                        self.refused_split = True
                        break
                    new_cost = (splits + 1, creations)
                if out and out[0][0] == "F":
                    # a unary move makes factors only by opening a power
                    # or splitting a factor, and they carry no id yet
                    new_items, new_counts, new_records = self._with_new_factors(
                        item, out, pos, items, counts, records)
                else:
                    new_items = items[:pos] + out + items[pos + 1:]
                    new_counts, new_records = counts, records
                self._dfs(self.canon_items(new_items), new_counts,
                          new_records.union(recs), new_cost)
        for i, j in self.interaction_pairs(items):
            pair = (items[i], items[j])
            binary = self._moves.get(pair)
            if binary is None:
                binary = self._moves[pair] = self._listed(self.binary_moves(*pair))
            if not binary:
                continue
            rest = items[:i] + items[i + 1:j] + items[j + 1:]
            for out, recs, key in binary:
                new_cost = cost
                if key is not None:
                    if dict(creations).get(key, 0) >= self.creation_cap:
                        continue
                    new_cost = (splits, _add_counts(creations, ((key, 1),)))
                self._dfs(self.canon_items(rest[:i] + out + rest[i:]),
                          counts, records.union(recs), new_cost)
        if self.ternary_moves is None:
            return
        for pos in range(len(items) - 2):
            x, middle, y = items[pos:pos + 3]
            if not self.starts_ternary(x, middle):
                continue
            for out, recs in self.ternary_moves(x, middle, y):
                self._dfs(self.canon_items(items[:pos] + out + items[pos + 3:]),
                          counts, records.union(self._intern_all(recs)), cost)

    def _with_new_factors(self, item, out, pos, items, counts, records):
        """The state (items, counts, records) after a unary move turned
        items[pos] into the new factors out, with canonical ids.

        An opened power's factor takes the power's offset, the factors
        before it; a split factor's pieces take its id and the next.  Every
        later id, in the other items and in the records, moves up past them.
        """
        i = item[1]
        first = item[2] if item[0] == "F" else sum(n for j, n in counts if j < i)

        def up(fid):
            return fid + 1 if fid >= first else fid

        moved = tuple(_named(it, up(it[2])) if it[0] == "F" else it for it in items)
        out = tuple(_named(it, first + k) for k, it in enumerate(out))
        return (moved[:pos] + out + moved[pos + 1:],
                _add_counts(counts, ((i, 1),)),
                frozenset(self._rename(records, up)))

    # -- span solver over items that do not commute --------------------

    def _span_run(self, items):
        self._memo, self._shared, self._shifted = {}, {}, {}
        self._depth = 0
        try:
            bundles = self._entry(_SOLVE, items, ())
            for key in bundles:
                if key == _OVER_SPLITS:
                    self.splits_cap_bound = True
                elif key == _OVER_FACTORS:
                    self.refused_split = True
                else:
                    ids, counts = key
                    orders = _orders(self._opened, counts)
                    ids = self._shift(ids, tuple(
                        (i, fids[0]) for i, fids in orders.items() if fids))
                    self.results.setdefault(tuple(sorted(ids)), orders)
        finally:
            # the memo holds every solved tuple; free it with the search
            self._memo = self._shared = self._shifted = None

    def _entry(self, kind, seq, used):
        """The bundles of seq for kind, solved once and memoised.

        used counts, per power, the factors made left of seq (used up,
        or waiting for a partner in seq); only powers with factor items
        in seq are kept, as only their splits depend on it.  No entry
        depends on itself, as no move splits an item that others could
        merge back into it (see HnnReductionSearch.unary_moves); an entry
        met again while it is being solved raises AssertionError.
        """
        if not seq:
            return _EMPTY_SOLVED if kind == _SOLVE else {}
        if used:
            live = {it[1] for it in seq if it[0] == "F"}
            used = tuple(count for count in used if count[0] in live)
        key = (kind, seq, used)
        hit = self._memo.get(key)
        if hit is _SOLVING:
            raise AssertionError(f"the span solver reached {seq} from itself")
        if hit is not None:
            return hit
        if self._depth >= SPAN_DEPTH_CAP:
            raise BudgetExceededError("reduction search depth", SPAN_DEPTH_CAP)
        self.states += 1
        if self.states > self.states_cap:
            raise BudgetExceededError("reduction search states", self.states_cap)
        self._memo[key] = _SOLVING
        self._depth += 1
        try:
            result = self._span(kind, seq, used)
        finally:
            self._depth -= 1
        self._memo[key] = result
        return result

    def _span(self, kind, seq, used):
        """_SOLVE: the bundles that reduce seq to 1.  _LEAD: {(y, rest):
        bundles} over the ways to reduce a prefix of seq to the item y
        followed by the tuple rest, and {None: bundles} for refusals."""
        out = {}
        if kind == _LEAD:
            out[(seq[0], seq[1:])] = {_NOTHING: _FREE}
        refused = out if kind == _SOLVE else {}
        for nxt, step in self._steps(seq, used):
            if nxt is None:
                self._join(step, _EMPTY_SOLVED, refused)
                continue
            by_counts = {}
            for key, costs in step.items():
                if key in _OVER:
                    self._join({key: costs}, _EMPTY_SOLVED, refused)
                else:
                    by_counts.setdefault(key[1], {})[key] = costs
            for counts, part in by_counts.items():
                after = self._entry(kind, nxt, _add_counts(used, counts))
                if kind == _SOLVE:
                    self._join(part, after, out)
                    continue
                for head, bundles in after.items():
                    self._join(part, bundles, out.setdefault(head, {}))
        if kind == _LEAD:
            # a cap reached on the way to an item is a refusal
            for head, bundles in list(out.items()):
                if head is None or not (
                        _OVER_SPLITS in bundles or _OVER_FACTORS in bundles):
                    continue
                for key in _OVER:
                    if key in bundles:
                        self._join({key: bundles.pop(key)}, _EMPTY_SOLVED, refused)
                if not bundles:
                    del out[head]
            if refused:
                out[None] = refused
        return out

    def _steps(self, seq, used):
        """(next tuple, bundles) for every move that uses up seq[0], and
        (None, bundles) for the refusals on the way."""
        x, rest = seq[0], seq[1:]
        unary = self._moves.get(("u", x))
        if unary is None:
            unary = self._moves[("u", x)] = []
            for out, recs, split in self.unary_moves(_named(x, _LEFT)):
                unary.append((out, self._intern_all(recs), split))
                if split and not self.splits_cap:
                    # refused below, as every split after it would be
                    break
        for out, recs, split in unary:
            if not split:
                yield out + rest, self._move_bundles(x, (), recs, None)
                continue
            if not self.splits_cap:
                self.splits_cap_bound = True
                break
            if x[0] == "F" and dict(used).get(x[1], 0) + sum(
                it[0] == "F" and it[1] == x[1] for it in seq
            ) >= FACTOR_CAP:
                yield None, {_OVER_FACTORS: _ONE_SPLIT}
                break
            yield out + rest, {_NOTHING: _ONE_SPLIT}
        if not rest or x[0] == "W":
            # an untouched power only opens or turns zero
            return
        held = _add_counts(used, ((x[1], 1),)) if x[0] == "F" else used
        for head, between in self._entry(_LEAD, rest, held).items():
            if head is None:
                yield None, between
                continue
            y, after = head
            for out, recs, key in self._cached((x, y), self.binary_moves, x, y):
                yield out + after, self._move_bundles(
                    x, ((between, y),), recs, key
                )
            if (not after or self.ternary_moves is None
                    or not self.starts_ternary(x, y)):
                continue
            by_counts = {}
            for key, costs in between.items():
                by_counts.setdefault(key[1], {})[key] = costs
            for counts, part in by_counts.items():
                lead = self._entry(_LEAD, after, _add_counts(held, counts))
                for head2, between2 in lead.items():
                    if head2 is None:
                        refusals = {}
                        self._join(part, between2, refusals)
                        yield None, refusals
                        continue
                    z, last = head2
                    for out, recs in self._cached(
                        (x, y, z), self.ternary_moves, x, y, z
                    ):
                        yield out + last, self._move_bundles(
                            x, ((part, None), (between2, z)), recs, None
                        )

    def _cached(self, key, moves, x, *others):
        """The moves with x as the left item and the last of others as
        the right one, their factor ids named _LEFT and _RIGHT and their
        records as ids."""
        hit = self._moves.get(key)
        if hit is None:
            named = [_named(x, _LEFT)] + list(others)
            named[-1] = _named(others[-1], _RIGHT)
            hit = self._moves[key] = self._listed(moves(*named))
        return hit

    def _move_bundles(self, x, parts, recs, key):
        """Bundles of a move that uses up x and one partner per part.

        parts lists (between, partner) from left to right: between holds
        the bundles of the prefix that reduced to the partner, and the
        move uses up the partner (None for a ternary move's middle).
        recs are the move's record ids.  Factor ids count from the left
        per power, so those of a part shift by the factors before it.
        """
        if not parts:
            # a unary move spends nothing and uses up at most x itself
            if x[0] != "F":
                return {self._key(recs, ()) if recs else _NOTHING: _FREE}
            recs = self._rename(recs, {_LEFT: 0}.__getitem__)
            return {self._key(recs, ((x[1], 1),)): _FREE}
        out = {}
        move = ((key, 1),) if key is not None else ()
        for combo in itertools.product(*(between.items() for between, _ in parts)):
            if x[0] == "F":
                fids, counts = {_LEFT: 0}, {x[1]: 1}
            else:
                fids, counts = {}, {}
            records = set()
            for ((brecords, bcounts), _c), (_b, partner) in zip(combo, parts):
                if counts:
                    brecords = self._shift(
                        brecords, tuple(sorted(counts.items())))
                records.update(brecords)
                for i, n in bcounts:
                    counts[i] = counts.get(i, 0) + n
                if partner is not None and partner[0] == "F":
                    fids[_RIGHT] = counts.get(partner[1], 0)
                    counts[partner[1]] = fids[_RIGHT] + 1
            records.update(self._rename(recs, fids.__getitem__))
            bkey = self._key(records, tuple(sorted(counts.items())))
            for costs in itertools.product(*(c for _k, c in combo)):
                creations = move
                for _splits, more in costs:
                    creations = _add_counts(creations, more)
                self._add_bundle(
                    out, bkey, (sum(c[0] for c in costs), creations)
                )
        return out

    def _join(self, left, right, out):
        """Add to out the bundles of left followed by those of right."""
        add = self._add_bundle
        if len(left) == 1 and _NOTHING in left and len(left[_NOTHING]) == 1:
            # left only spent a cost: right's bundles keep their keys
            splits, creations = left[_NOTHING][0]
            for key, costs in right.items():
                if not (splits or creations) and key not in out:
                    out[key] = costs
                    continue
                for s, c in costs:
                    add(out, key, (
                        splits + s, _add_counts(creations, c) if c else creations
                    ))
            return
        for lkey, lcosts in left.items():
            for rkey, rcosts in right.items():
                if lkey.__class__ is str:
                    key = lkey
                elif rkey.__class__ is str or lkey == _NOTHING:
                    key = rkey
                elif rkey == _NOTHING:
                    key = lkey
                else:
                    records = rkey[0]
                    if lkey[1] and records:
                        records = self._shift(records, lkey[1])
                    key = self._key(
                        set(lkey[0]).union(records),
                        _add_counts(lkey[1], rkey[1]),
                    )
                for lcost in lcosts:
                    if lcost == (0, ()):
                        for rcost in rcosts:
                            add(out, key, rcost)
                        continue
                    for rsplits, rcreations in rcosts:
                        add(out, key, (
                            lcost[0] + rsplits,
                            _add_counts(lcost[1], rcreations),
                        ))

    def _add_bundle(self, out, key, cost):
        """Keep a bundle cost within the caps if no kept cost is below it."""
        splits, creations = cost
        for _k, n in creations:
            if n > self.creation_cap:
                return
        if splits > self.splits_cap:
            key, cost = _OVER_SPLITS, (self.splits_cap + 1, creations)
        costs = out.get(key)
        if costs is None:
            single = (cost,)
            out[key] = self._shared.setdefault(single, single)
            return
        for old in costs:
            if _no_more(old, cost):
                return
        kept = [old for old in costs if not _no_more(cost, old)]
        out[key] = tuple(sorted(kept + [cost]))

    def _key(self, ids, counts):
        """The bundle key (ids, counts), ids the sorted tuple of the
        record ids; equal tuples and keys are shared, as they recur
        across many bundles."""
        shared = self._shared
        listed = tuple(sorted(ids))
        key = (shared.setdefault(listed, listed), shared.setdefault(counts, counts))
        return shared.setdefault(key, key)

    def _intern(self, record):
        """The id of a record, numbered in the order records are met."""
        rid = self._ids.get(record)
        if rid is None:
            rid = self._ids[record] = len(self._records)
            self._records.append(record)
            if record[0] == "assign":
                self._slots.append(((record[1], record[2]),))
            elif record[0] == "pair":
                self._slots.append(((record[1], record[2]), (record[4], record[5])))
            else:
                self._slots.append(())
        return rid

    def _intern_all(self, records):
        return tuple(self._intern(r) for r in records)

    def _listed(self, moves):
        """The moves (out, records, ...) with their records as ids."""
        return [(move[0], self._intern_all(move[1])) + move[2:] for move in moves]

    def _retag(self, rid, fids):
        """The id of record rid with its factor slots set to fids."""
        hit = self._retagged.get((rid, fids))
        if hit is None:
            r = self._records[rid]
            if r[0] == "assign":
                r = (r[0], fids[0]) + r[2:]
            else:
                r = (r[0], fids[0]) + r[2:4] + (fids[1],) + r[5:]
            hit = self._retagged[(rid, fids)] = self._intern(r)
        return hit

    def _shift(self, ids, offsets):
        """The tuple ids with each factor id moved up by its power's
        offset, given as sorted (power, offset) pairs; memoised."""
        hit = self._shifted.get((ids, offsets))
        if hit is None:
            slots, shift, out = self._slots, dict(offsets), []
            for rid in ids:
                if slots[rid]:
                    rid = self._retag(rid, tuple(
                        fid + shift.get(i, 0) for fid, i in slots[rid]))
                out.append(rid)
            hit = self._shifted[(ids, offsets)] = tuple(out)
        return hit

    def _rename(self, ids, rename):
        """ids with every factor id fid of their records made rename(fid):
        the names _LEFT and _RIGHT numbered, or the ids a new factor
        moves up."""
        slots = self._slots
        return [self._retag(rid, tuple(rename(fid) for fid, _i in slots[rid]))
                if slots[rid] else rid for rid in ids]


def _named(item, fid):
    return item[:2] + (fid,) + item[3:] if item[0] == "F" else item


def _orders(opened, counts):
    """Each opened power's factor ids, given the factor counts: numbered
    by power, then from left to right."""
    counts, orders, top = dict(counts), {}, 0
    for i in opened:
        orders[i] = tuple(range(top, top + counts.get(i, 0)))
        top += counts.get(i, 0)
    return orders


def _add_counts(a, b):
    """Sum of two sorted (key, count) tuples."""
    if not a:
        return b
    if not b:
        return a
    counts = dict(a)
    for k, n in b:
        counts[k] = counts.get(k, 0) + n
    return tuple(sorted(counts.items()))


def _no_more(small, big):
    """Cost small has no more splits and no more creations at any key."""
    if small[0] > big[0]:
        return False
    if not small[1]:
        return True
    counts = dict(big[1])
    return all(n <= counts.get(k, 0) for k, n in small[1])
