"""The names the benchmark harness reaches into knapsolve by still resolve.

perfbench/tracer.py wraps layers and swaps caches by module and
attribute name, and perfbench/worker.py calls the solvers through the
package namespace.  A rename in knapsolve would break `--trace 1` and
the search-state counts without any other test failing.  These tests
only read the harness's source; they run none of it.  The tracer's
count_searches reads the states and results of every search it wraps,
also when a budget ends the search, so both searches are run here to
a spent budget.
"""

import ast
import importlib
from pathlib import Path

import pytest

import knapsolve
import knapsolve.oracle  # noqa: F401 - worker.py reaches it as ks.oracle
from knapsolve.errors import BudgetExceededError
from knapsolve.gp_solver import GraphProductScheme

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_constant(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py defines no {name}")


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_tracer_layers_and_caches_resolve():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    layers = _module_constant(tree, "LAYERS")
    for layer, (mod_name, attrs) in layers.items():
        mod = importlib.import_module(f"knapsolve.{mod_name}")
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            assert callable(_resolve(mod, attr)), f"{layer}: {mod_name}.{attr}"
    for layer in _module_constant(tree, "SEARCH_LAYERS"):
        assert layers[layer][1].endswith(".run"), layer
    for name, (mod_name, attr) in _module_constant(tree, "CACHES").items():
        mod = importlib.import_module(f"knapsolve.{mod_name}")
        assert isinstance(getattr(mod, attr, None), dict), f"{name}: {attr}"


def _package_chains(tree):
    """Dotted names read off the package object, named ks or knapsolve."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        parts.reverse()
        for root in ("ks", "knapsolve"):
            if root in parts[:2] and parts.index(root) + 1 < len(parts):
                chains.add(".".join(parts[parts.index(root) + 1:]))
    return chains


def test_worker_calls_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    chains = _package_chains(tree)
    assert "solve_exponent_graph_product" in chains
    missing = sorted(c for c in chains if _resolve(knapsolve, c) is None)
    assert not missing, missing


def _z2(gen):
    return {"type": "CyclicGroup", "order": 2, "generator": gen}


@pytest.mark.parametrize("edges, use_dfs", [
    ([[0, 1], [1, 2], [2, 3]], True),  # path P4: the depth-first search
    ([], False),  # a free product: the span solver
])
def test_a_spent_budget_leaves_what_count_searches_reads(edges, use_dfs):
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    _mod, attr = _module_constant(tree, "LAYERS")["gp_solver.search"]
    backend = knapsolve.build_backend({
        "type": "GraphProduct", "vertices": [_z2(g) for g in "abcd"],
        "edges": edges,
    })
    budget = 3
    search = GraphProductScheme(backend).search({}, 4, 2, budget)
    assert type(search).__name__ == attr.split(".")[0]
    assert search.use_dfs is use_dfs
    t = backend.elem_from_word(tuple("abcdabcd"))
    with pytest.raises(BudgetExceededError):
        search.run((("C", t), ("C", t.inv())))
    assert isinstance(search.states, int) and search.states > budget
    assert isinstance(search.results, dict)
