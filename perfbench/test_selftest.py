"""Self-test of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/test_selftest.py

Checks that one command prints every metric with its unit, that the
list in BENCHMARK.json matches what the harness prints, that a wrong
answer or a wrong saved result trips the oracle gate, and that the
harness refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = ["--seed", "7", "--seconds", "1"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed(proc):
    """{(workload, name): unit} from the metric lines, and the JSON line."""
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    for line in lines[:-1]:
        workload, _, rest = line.partition(": ")
        name, eq, value_unit = rest.partition(" = ")
        if eq:
            metrics[(workload, name)] = value_unit.split()[1]
    return metrics, json.loads(lines[-1])


@pytest.mark.parametrize("trace, spec", [
    (0, run.END_TO_END),
    (1, run.per_layer_spec()),
])
def test_every_metric_printed_with_its_unit(trace, spec):
    proc = bench("--workload", "all", "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    metrics, result = printed(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for workload in run.WORKLOADS:
        for name, unit, _better in spec:
            assert metrics[(workload, name)] == unit, (workload, name)
            value = result["metrics"][f"{workload}.{name}"]
            assert value["unit"] == unit
            assert isinstance(value["value"], (int, float))


def test_benchmark_json_matches_the_harness():
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench_json["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench_json["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench_json["per_layer"]] == run.per_layer_spec()


@pytest.mark.parametrize("workload", ["solve-corpus", "verify-replay"])
def test_wrong_answer_trips_the_oracle_gate(workload):
    proc = bench("--workload", workload, "--trace", "0", "--inject-wrong", *TINY)
    assert proc.returncode == 1, proc.stderr
    _, result = printed(proc)
    assert not result["correct"]
    assert result["failed"] == 1
    assert "FAILED" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "solve-corpus", "--trace", "0", *TINY,
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_rebinds_every_importing_module():
    proc = subprocess.run([sys.executable, "-c", (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "import knapsolve, tracer\n"
        "from knapsolve import gp_solver, trace, hnn, groups\n"
        "t = tracer.Tracer(); t.install()\n"
        "assert gp_solver.nf_R is trace.nf_R\n"
        "assert trace.nf_R.__wrapped__ is not None\n"
        "assert knapsolve.build_backend is groups.build_backend\n"
        "assert groups.build_backend.__wrapped__ is not None\n"
        "assert isinstance(hnn._HNN_TWO_DIM_CACHE, tracer.CountingDict)\n"
    )], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_search_states_count_when_a_budget_ends_the_search():
    proc = subprocess.run([sys.executable, "-c", (
        "import sys; sys.path[:0] = ['src', 'perfbench']\n"
        "from collections import Counter\n"
        "import corpus, knapsolve, tracer\n"
        "sink = Counter(); tracer.count_searches(sink)\n"
        "group, text = corpus.HARD[1]\n"
        "b = knapsolve.build_backend(corpus.GROUPS[group][0])\n"
        "e = knapsolve.parse_expr(text)\n"
        "try:\n"
        "    knapsolve.solve_exponent_graph_product(b, e, states_budget=50)\n"
        "except knapsolve.BudgetExceededError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('the budget did not end the search')\n"
        "assert sink['gp_solver.search.states'] >= 50, sink\n"
    )], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n, q", [(100, 90), (219, 95), (30, 66), (5, 50)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, q):
    assert run.tail_percentile(n) == q


@pytest.mark.parametrize("n", [1, 2, 5, 138])
def test_quantile_of_a_uniform_sample(n):
    values = list(range(1, n + 1))
    assert run.quantile(values, 0.5) == pytest.approx((n + 1) / 2, rel=1e-3)
    tail = run.quantile(values, run.tail_percentile(n) / 100)
    assert 1 <= tail <= n
    assert run.quantile([0.25] * n, 0.9) == pytest.approx(0.25)
