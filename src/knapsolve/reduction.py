"""The guess-and-reduce driver shared by graph products and HNN-extensions.

Both solvers answer e = 1 with one scheme:

  1. rewrite every period into atomic or well-behaved parts via the
     group's power presentation and rename repeated variables apart
     (preprocess); the diagonal K ties the renamed copies together;
  2. guess which atomic powers evaluate to the identity and solve each
     guessed power inside its vertex or base group;
  3. search for reductions of the remaining factor tuple: constants
     split, symbolic powers split into factors, neighbouring atoms merge
     or discharge into local constraints, matching factors cancel; the
     search runs to the scheme's ceilings on splits and atom creations,
     and drops a state only when an earlier one with the same items had
     no more splits and, at every key, no more creations;
  4. cut the factors of every well-behaved power into shapes, resolve
     the factors the search assigned a concrete value, solve matched
     factor pairs with the group's two-dimensional solver, and
     direct-sum the sets of one outcome;
  5. take the union over guesses and outcomes, keep its points on the
     diagonal K and project back to the variables of e.

diagnostics["complete"] turns false only when a cap below a ceiling
bound: a caller's splits_budget, or FACTOR_CAP refusing a split.

A group plugs in through a Scheme subclass and a ReductionSearchBase
subclass; everything else lives here once.
"""

import itertools

from .errors import BudgetExceededError
from .expr import Renaming, expr_from_entries
from .semilinear import SemilinearSet
from .words import invert_word

SEARCH_STATES_CAP = 2_000_000
#: limit on symbolic factors per power; a split it refuses clears complete
FACTOR_CAP = 3


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
      zero_guess(u, var)          solutions of u^var = 1 for atomic u
      atomic_item(i, u)           the search item of atomic power i
      max_splits(m), max_creations(m)
                                  completeness ceilings for m items
      search(powers, splits_cap, creation_cap, states_cap)
                                  a ReductionSearchBase
      local_solutions(rec, var_of)
                                  the set of a local-constraint record
      factor_shapes(u, fids, assigns, pairs)
                                  (c, forms) cutting u^x into one form
                                  per factor id, x = c + the x_j
      match_value(u, form, value) the x with form(u^x) = value, or None
      pair_components(powers, order, comp_pairs, reduced)
                                  LinearSets of a pair-connected group
    """

    def preprocess(self, e):
        """Rewrite e so that every period is atomic or well-behaved.

        Returns (prep, K) with sol(e) = (K cap sol(prep)) restricted to
        the variables of e; K has magnitude one and ties renamed
        occurrences of the same variable together.
        """
        for period, _var, tail in e.factors:
            self.backend.check_word(period)
            self.backend.check_word(tail)
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


def solve_by_reduction(scheme, e, splits_budget, states_budget, diagnostics):
    """Solution set of e = 1 over the group of scheme."""
    prep, K = scheme.preprocess(e)
    occ_vars = prep.occ_vars
    stats = diagnostics if diagnostics is not None else {}
    stats.setdefault("branches", 0)
    stats.setdefault("reductions", 0)
    stats.setdefault("states", 0)
    stats.setdefault("complete", True)

    if not prep.powers:
        assert occ_vars, "an exponent expression always carries variables"
        sols = (SemilinearSet.universe(occ_vars) if prep.tails[0].is_identity()
                else SemilinearSet.empty(occ_vars))
        return sols.on_diagonal(K).restrict(e.variables)

    period = {i: u for i, (u, _var) in enumerate(prep.powers, 1)}
    var_of = {i: var for i, (_u, var) in enumerate(prep.powers, 1)}
    atomic = [i for i in period if scheme.is_atomic(period[i])]
    wb = {i: u for i, u in period.items() if i not in atomic}

    constrained = [name for name in occ_vars if name not in prep.free_occs]
    assert constrained, "every power contributes a constrained occurrence"
    total = SemilinearSet.empty(tuple(constrained))

    for n1_bits in itertools.product((False, True), repeat=len(atomic)):
        n1 = {atomic[k] for k in range(len(atomic)) if n1_bits[k]}
        stats["branches"] += 1
        n1_sets = []
        for i in sorted(n1):
            sols = scheme.zero_guess(period[i], var_of[i])
            if sols.is_empty_representation():
                break
            n1_sets.append(sols)
        if len(n1_sets) < len(n1):
            continue

        items = [] if prep.tails[0].is_identity() else [("C", prep.tails[0])]
        for i in period:
            if i in wb:
                items.append(("W", i))
            elif i not in n1:
                items.append(scheme.atomic_item(i, period[i]))
            if not prep.tails[i].is_identity():
                items.append(("C", prep.tails[i]))
        if not items:
            total = total.union(_assemble_direct_sum(n1_sets, constrained))
            continue

        m = len(items)
        splits_cap = scheme.max_splits(m)
        if splits_budget is not None and splits_budget < splits_cap:
            splits_cap = splits_budget
            stats["complete"] = False
        search = scheme.search(
            wb, splits_cap, scheme.max_creations(m), states_budget
        )
        try:
            results = search.run(tuple(items))
        finally:
            # a budget or a timeout still leaves the states it counted
            stats["states"] += search.states
        if search.refused_split:
            stats["complete"] = False
        stats["reductions"] += len(results)
        for records, orders in results.items():
            sets = _assemble_outcome(
                scheme, wb, var_of, records, orders, n1_sets, stats
            )
            if sets is not None:
                total = total.union(_assemble_direct_sum(sets, constrained))

    result = total
    for name in prep.free_occs:
        result = result.direct_sum(SemilinearSet.universe((name,)))
    return result.on_diagonal(K).restrict(e.variables)


def _assemble_direct_sum(sets, names):
    """Direct-sum disjoint-variable sets and align to the given order."""
    out = None
    for piece in sets:
        out = piece if out is None else out.direct_sum(piece)
    assert out is not None, "a branch always constrains some variable"
    missing = [n for n in names if n not in set(out.vars)]
    assert not missing, f"branch left variables unconstrained: {missing}"
    return out._aligned_to(tuple(names))


def _assemble_outcome(scheme, wb, var_of, records, orders, n1_sets, stats):
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

    sets = list(n1_sets)
    for i in sorted(zero_powers):
        sets.append(SemilinearSet.point((var_of[i],), (0,)))

    for rec in local:
        sols = scheme.local_solutions(rec, var_of)
        if sols.is_empty_representation():
            return None
        sets.append(sols)

    active = {i: fids for i, fids in orders.items() if fids}
    shapes = {}
    for i, fids in active.items():
        shapes[i] = scheme.factor_shapes(wb[i], fids, assigns, pairs)
        if not shapes[i]:
            return None

    # resolve assigned factors per power, leaving only paired ones open
    paired_fids = set()
    for fid_l, _il, _xl, fid_r, _ir, _xr in pairs:
        paired_fids.add(fid_l)
        paired_fids.add(fid_r)
    reduced = {}
    for i, fids in active.items():
        opts = []
        seen = set()
        for c, forms in shapes[i]:
            open_forms = {}
            for fid, form in zip(fids, forms):
                if fid in assigns:
                    x = scheme.match_value(wb[i], form, assigns[fid][-1])
                    if x is None:
                        break
                    c += x
                else:
                    assert fid in paired_fids, "every factor id is consumed"
                    open_forms[fid] = form
            else:
                sig = (c, tuple(sorted(open_forms.items())))
                if sig not in seen:
                    seen.add(sig)
                    opts.append((c, open_forms))
        if not opts:
            return None
        reduced[i] = opts
    stats["grids"] = stats.get("grids", 0) + 1

    # pair records couple at most two powers at a time; solve the pair
    # relation per connected component of powers and direct-sum the rest
    parent = {i: i for i in active}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for _fl, i_l, _xl, _fr, i_r, _xr in pairs:
        parent[find(i_l)] = find(i_r)
    groups = {}
    for i in sorted(active):
        groups.setdefault(find(i), []).append(i)

    for order in sorted(groups.values()):
        comp_pairs = [pr for pr in pairs if find(pr[1]) == find(order[0])]
        names = tuple(var_of[i] for i in order)
        components = scheme.pair_components(wb, order, comp_pairs, reduced)
        group_set = SemilinearSet(names, components)
        if group_set.is_empty_representation():
            return None
        sets.append(group_set)
    return sets


def solve_local(group, entries, target=()):
    """Solutions of a product of entries equal to target inside group.

    group is a vertex or base group; entries are ("e", word) constants
    and ("p", var, word) powers word^var, every var once and at least
    one power among them; target is a word.  The group's own
    solve_knapsack answers the knapsack expression of the product.
    """
    e = expr_from_entries(list(entries) + [("e", invert_word(target))])
    return group.solve_knapsack(e)


def restrict_lines(lines, need_x, need_y):
    """Keep only line points with x >= 1 / y >= 1 where required."""
    out = set()
    for a0, b0, c0, d0 in lines:
        dead = False
        for _ in range(2):
            if (need_x and a0 < 1) or (need_y and c0 < 1):
                if (need_x and a0 < 1 and b0 == 0) or (
                        need_y and c0 < 1 and d0 == 0):
                    dead = True
                    break
                a0, c0 = a0 + b0, c0 + d0
        if dead or (need_x and a0 < 1) or (need_y and c0 < 1):
            continue
        out.add((a0, b0, c0, d0))
    return sorted(out)


def pair_line_sets(order, offsets, pair_lines):
    """Yield (base, periods) for each choice of one line per matched pair.

    pair_lines holds (iL, iR, lines); a line (a, b, c, d) stands for the
    exponents (a + b z, c + d z) of powers iL and iR.  base is indexed
    like order and adds the chosen a and c to offsets.
    """
    for choice in itertools.product(*(lines for _il, _ir, lines in pair_lines)):
        shift = dict(offsets)
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


class ReductionSearchBase:
    """Enumerates reductions of refinements of an item tuple.

    powers maps well-behaved power indices to their periods.  A state is
    (items, orders, records, splits, creations): orders maps each power
    index to its factor id sequence, records is a frozenset of
    constraints, splits counts refinement splits and creations counts
    atom creations per key (a missing key counts 0).  A state is skipped
    when one with the same items, orders and records was seen with no
    more splits and, on every key, no more creations.  refused_split
    turns true when FACTOR_CAP refuses a split that splits_cap allows.
    run() returns {records: orders} over the states with no items left.

    Subclasses define _expand(), the moves out of a state, and factor(),
    the first factor item of a power.  Factor items ("F", i, fid, ...)
    carry their id at position 2, ("assign", fid, ...) records at
    position 1 and ("pair", fidL, iL, a, fidR, iR, b) records at
    positions 1 and 4.
    """

    def __init__(self, powers, splits_cap, creation_cap, states_cap):
        self.powers = powers
        self.splits_cap = splits_cap
        self.creation_cap = creation_cap
        self.states_cap = states_cap
        self.refused_split = False
        self.states = 0
        self.seen = {}
        self.results = {}

    def canon_items(self, items):
        """Normal form of the item tuple; items do not commute here."""
        return items

    def run(self, items):
        items = self.canon_items(tuple(items))
        orders = {
            i: ()
            for i in sorted(self.powers)
            if any(it[0] == "W" and it[1] == i for it in items)
        }
        self._dfs(items, orders, frozenset(), 0, {})
        return self.results

    def canon_fids(self, items, orders, records):
        """Renumber factor ids by position so isomorphic states collapse."""
        mapping = {}
        for i in sorted(orders):
            for fid in orders[i]:
                mapping[fid] = len(mapping)
        if all(old == new for old, new in mapping.items()):
            return items, orders, records
        new_items = tuple(
            it[:2] + (mapping[it[2]],) + it[3:] if it[0] == "F" else it
            for it in items
        )
        new_orders = {
            i: tuple(mapping[f] for f in fids) for i, fids in orders.items()
        }
        new_records = frozenset(
            (r[0], mapping[r[1]]) + r[2:] if r[0] == "assign"
            else (r[0], mapping[r[1]]) + r[2:4] + (mapping[r[4]],) + r[5:]
            if r[0] == "pair" else r
            for r in records
        )
        return new_items, new_orders, new_records

    @staticmethod
    def _fresh_fid(orders):
        top = -1
        for fids in orders.values():
            for fid in fids:
                top = max(top, fid)
        return top + 1

    def _recurse(self, items, orders, records, splits, creations):
        items, orders, records = self.canon_fids(
            self.canon_items(items), orders, records
        )
        self._dfs(items, orders, records, splits, creations)

    def _dfs(self, items, orders, records, splits, creations):
        key = (items, tuple(sorted(orders.items())), records)
        prior = self.seen.setdefault(key, [])
        for old_splits, old_creations in prior:
            if old_splits <= splits and all(
                n <= creations.get(k, 0) for k, n in old_creations.items()
            ):
                return
        prior.append((splits, creations))
        self.states += 1
        if self.states > self.states_cap:
            raise BudgetExceededError("reduction search states", self.states_cap)
        if not items:
            if records not in self.results:
                self.results[records] = dict(orders)
            return
        self._expand(items, orders, records, splits, creations)

    def _zero_or_open(self, items, pos, orders, records, splits, creations):
        """Moves of an untouched power: it is zero, or one open factor."""
        i = items[pos][1]
        self._recurse(
            items[:pos] + items[pos + 1:],
            orders, records | {("zero", i)}, splits, creations,
        )
        fid = self._fresh_fid(orders)
        new_orders = dict(orders)
        new_orders[i] = (fid,)
        self._recurse(
            items[:pos] + (self.factor(i, fid),) + items[pos + 1:],
            new_orders, records, splits, creations,
        )

    def _split_orders(self, orders, i, fid, splits):
        """Orders with factor fid of power i split in two, or None past a cap.

        Returns (orders, fid1, fid2).
        """
        if splits + 1 > self.splits_cap:
            return None
        if len(orders[i]) >= FACTOR_CAP:
            self.refused_split = True
            return None
        fid1 = self._fresh_fid(orders)
        seq = list(orders[i])
        at = seq.index(fid)
        new_orders = dict(orders)
        new_orders[i] = tuple(seq[:at] + [fid1, fid1 + 1] + seq[at + 1:])
        return new_orders, fid1, fid1 + 1

    def _created(self, creations, key):
        """creations with one more atom created at key, or None at the cap."""
        if creations.get(key, 0) >= self.creation_cap:
            return None
        new_creations = dict(creations)
        new_creations[key] = new_creations.get(key, 0) + 1
        return new_creations
