"""Scheme.pair_components joins matched factor pairs power by power.

The join picks one group of open forms per power and solves each pair
record once per pair of forms.  These tests record the inputs that real
graph-product and HNN solves give it (the cases of test_pair_lines, and
path-p3/d3/3 of the benchmark's solve corpus, where the join saves the
most; path-p3 splits into Z2 x (Z2 * Z2), and Z2 * Z2 solves over Z, so
that instance calls the graph-product search on the Z2 * Z2 factor
directly) and replay each one:

- its components equal those of the product loop over every power's
  groups that it replaced, kept here as the reference, after the
  de-duplication that SemilinearSet applies;
- no (pair record, left form, right form) reaches the scheme's
  pair_lines hook twice within one call.

The join walks an outcome's pair records in the order the search
first met them, which the input fixes, not the hash seed; CI runs this
file under eight hash seeds, which guard that.
"""

import collections
import itertools

import pytest

from knapsolve import gp_solver
from knapsolve.expr import parse_expr
from knapsolve.groups import build_backend, solve_exponent
from knapsolve.reduction import Scheme, pair_line_sets
from knapsolve.semilinear import LinearSet

from test_gp_solver import path_p3, search_solve, z2_z2_factor
from test_pair_lines import GP_CASES, HNN_CASES

CASES = GP_CASES + HNN_CASES
#: path-p3/d3/3, searched on its Z2 * Z2 factor
PATH_P3_TEXT = "(a' c' b')^x c (c')^y (c a b)^z"


def _product_loop(scheme, wb, order, comp_pairs, reduced):
    """The components as the full product over every power's form groups
    builds them; pair_lines is memoised here only to keep the test fast."""
    memo = {}

    def lines_of(pair, form_l, form_r):
        key = (pair, form_l, form_r)
        if key not in memo:
            memo[key] = scheme.pair_lines(wb, pair, form_l, form_r)
        return memo[key]

    components = []
    for combo in itertools.product(*(reduced[i] for i in order)):
        forms = {}
        for of, _cs in combo:
            forms.update(of)
        pair_lines = []
        for pair in comp_pairs:
            fid_l, i_l, _al, fid_r, i_r, _ar = pair
            lines = lines_of(pair, forms[fid_l], forms[fid_r])
            if not lines:
                break
            pair_lines.append((i_l, i_r, lines))
        else:
            for base, periods in pair_line_sets(order, pair_lines):
                for cs in itertools.product(*(cs for _of, cs in combo)):
                    components.append(LinearSet(
                        tuple(c + b for c, b in zip(cs, base)), periods))
    return components


@pytest.fixture(scope="module")
def recorded():
    """(scheme, wb, order, comp_pairs, reduced) of every pair_components
    call of the CASES' solves, past the graph-product component cache."""
    calls = []
    shared = Scheme.pair_components

    def recording(self, wb, order, comp_pairs, reduced):
        calls.append((self, wb, order, comp_pairs, reduced))
        return shared(self, wb, order, comp_pairs, reduced)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp_solver, "_COMPONENT_CACHE", {})
        mp.setattr(Scheme, "pair_components", recording)
        for desc, text in CASES:
            solve_exponent(build_backend(desc), parse_expr(text))
        search_solve(*z2_z2_factor(path_p3(), parse_expr(PATH_P3_TEXT)))
    return calls


def test_join_equals_the_product_loop(recorded):
    kinds = collections.Counter(type(call[0]).__name__ for call in recorded)
    assert kinds["GraphProductScheme"] >= 60 and kinds["HnnScheme"] >= 10
    for scheme, wb, order, comp_pairs, reduced in recorded:
        joined = Scheme.pair_components(scheme, wb, order, comp_pairs, reduced)
        assert list(dict.fromkeys(joined)) == list(dict.fromkeys(
            _product_loop(scheme, wb, order, comp_pairs, reduced)))


def test_join_solves_each_record_once_per_pair_of_forms(monkeypatch,
                                                        recorded):
    asked = collections.Counter()
    repeats_saved = 0
    for scheme, wb, order, comp_pairs, reduced in recorded:
        hook = type(scheme).pair_lines

        def counting(self, wb, pair, form_l, form_r, hook=hook):
            asked[pair, form_l, form_r] += 1
            return hook(self, wb, pair, form_l, form_r)

        asked.clear()
        with monkeypatch.context() as mp:
            mp.setattr(type(scheme), "pair_lines", counting)
            Scheme.pair_components(scheme, wb, order, comp_pairs, reduced)
        assert all(n == 1 for n in asked.values()), asked.most_common(1)
        combos = 1
        for i in order:
            combos *= len(reduced[i])
        repeats_saved += combos * len(comp_pairs) - len(asked)
    # the product loop would have asked the hook again on most records
    assert repeats_saved > 1000
