"""knapsolve benchmark: prints every metric of a workload and checks answers.

    python3 perfbench/run.py --workload solve-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass of a workload runs in a
fresh worker process (worker.py), because knapsolve's module-level
caches live for the whole process.  The set-up is timed in seven more
fresh processes and setup_s is their median.  verify-replay's saved
results are made by one more worker, before and outside the pass.
Times are in seconds of the machine worker.REFERENCE_S was set on:
each instance's time is divided by the speed factor measured just
before it, which also scaled its limit (see worker.SpeedGauge), and each
set-up time by the factor measured just after it.  The lines before the
JSON give the measured seconds too.  With --trace 0 the last
line of standard output is a JSON object holding the end-to-end
metrics; with --trace 1 a second, traced pass follows the untraced one
and the JSON holds the per-layer metrics and the tracing overhead.
Rows per instance go to perfbench/results/.  The exit code is 1 when
an answer disagrees with the brute-force oracle or an instance raised,
2 when there is no knapsolve to measure, and 3 when a worker failed.

--workload all runs the three workloads in turn and prints them all.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKLOADS = ("solve-corpus", "solve-repeated", "verify-replay")
SETUP_SAMPLES = 7
#: seconds within which every pass of one workload ends
RUN_DEADLINE = 170.0

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("instance_s.p50", "s", "lower"),
    ("instance_s.tail", "s", "lower"),
    ("decided_share", "ratio", "higher"),
    ("complete_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

OVERHEAD = ("tracing.overhead_s", "s", "lower")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for layer in tracer.LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.total_s", "s", "lower"),
                (f"{layer}.self_s", "s", "lower")]
        if layer in tracer.SEARCH_LAYERS:
            out += [(f"{layer}.states", "count", "lower"),
                    (f"{layer}.outcomes", "count", "lower"),
                    (f"{layer}.yield", "ratio", "higher")]
    for cache in tracer.CACHES:
        out += [(f"{cache}.hit_ratio", "ratio", "higher"),
                (f"{cache}.size", "count", "lower")]
    return out + [OVERHEAD]


class WorkerError(Exception):
    pass


def tail_percentile(n):
    """The highest whole percentile with >= 10 of n samples beyond it.

    Below 20 samples the median stands in for the tail.
    """
    return max(50, (100 * (n - 10)) // n)


def quantile(values, q, steps=16):
    """The Harrell-Davis estimate of the q-quantile of values.

    A mean of all order statistics, weighted by the Beta((n+1)q,
    (n+1)(1-q)) law of the q-quantile's rank.  Where a corpus has few
    instances near the quantile, the order statistic nearest to it jumps
    between neighbours that are far apart when the instance order
    changes; the weighted mean moves smoothly.  The weights are
    integrated with the midpoint rule and normalised to sum to one.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    weights = [
        sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_worker(deadline, seed, *args):
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise WorkerError("run deadline passed before a worker could start")
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining,
            env={**os.environ, "PYTHONHASHSEED": str(seed % 2**32)},
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the run deadline: {cmd}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate_failures(result):
    """Instances that raised or whose answer the oracle rejected."""
    return [
        r for r in result["rows"]
        if r["outcome"] == "error" or r.get("oracle_ok") is False
    ]


def reference_seconds(result):
    """The instance times of a pass, in seconds of the reference machine."""
    return [r["seconds"] / r["speed_factor"] for r in result["rows"]]


def end_to_end(result, setups):
    """(values, notes); setups are the results of the set-up workers."""
    rows = result["rows"]
    seconds = reference_seconds(result)
    answered = [r for r in rows if r["outcome"] == "answered"]
    q = tail_percentile(len(seconds))
    tail = quantile(seconds, q / 100)
    values = {
        "wall_s": sum(seconds),
        "setup_s": statistics.median(s["setup_s"] / s["speed_factor"]
                                     for s in setups),
        "decided_share": len(answered) / len(rows),
        "complete_share": (
            sum(1 for r in answered if r["complete"]) / len(answered)
            if answered else 0.0
        ),
        "instance_s.p50": quantile(seconds, 0.5),
        "instance_s.tail": tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = [r["seconds"] for r in rows]
    measured = [
        f"wall_s {result['wall_s']:.4g}",
        f"setup_s {statistics.median(s['setup_s'] for s in setups):.4g}",
        f"instance_s.p50 {quantile(raw, 0.5):.4g}",
        f"instance_s.tail {quantile(raw, q / 100):.4g}",
    ]
    factors = [r["speed_factor"] for r in rows]
    return values, [
        f"instance_s.tail is p{q} over N={len(rows)} instances",
        f"speed factor median {statistics.median(factors):.4f}, range "
        f"{min(factors):.3f}-{max(factors):.3f}, from "
        f"{result['speed_samples']} samples; measured seconds: "
        f"{', '.join(measured)}",
    ]


def describe(workload, result):
    rows = result["rows"]
    outcomes = {}
    for r in rows:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    near = [r["key"] for r in rows
            if r["seconds"] >= 0.8 * result["limit"] * r["speed_factor"]]
    lines = [
        f"python {result['python']}, nproc {result['nproc']}, "
        f"seed {result['seed']}, limit {result['limit']} s",
        "outcomes " + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())),
        f"near or at the limit ({len(near)}): {' '.join(sorted(near))}",
        f"sorted solve JSON sha256 {result['digest']}",
        f"untimed: oracle gate {result['gate_s']:.2f} s",
    ]
    if "excluded" in result:
        lines.append(
            f"{result['excluded']} corpus instances left out: their solve "
            f"for a saved result was not answered within the limit"
        )
    return [f"{workload}: {line}" for line in lines]


def write_rows(path, workload, result, traced):
    with open(path, "w", encoding="utf-8") as handle:
        header = {k: result[k] for k in ("python", "nproc", "seed", "limit",
                                         "digest", "wall_s")}
        header.update(workload=workload, traced=traced)
        handle.write(json.dumps(header) + "\n")
        for row in result["rows"]:
            handle.write(json.dumps(row) + "\n")


def run_workload(workload, args, deadline, out_dir):
    """(metrics, notes, attempted, failures) of one workload."""
    common = ["--workload", workload, "--seed", args.seed,
              "--seconds", args.seconds]
    notes = []
    if workload == "verify-replay":
        saved = out_dir / f"{workload}-seed{args.seed}-saved.json"
        start = perf_counter()
        made = run_worker(deadline, args.seed, *common, "--save", saved)
        notes.append(f"{workload}: untimed: {made['saved']} saved results "
                     f"made in {perf_counter() - start:.2f} s")
        common += ["--saved", saved]
    passes = [(0, run_worker(
        deadline, args.seed, *common, "--trace", 0,
        *(["--inject-wrong"] if args.inject_wrong else []),
    ))]
    if args.trace:
        spans = out_dir / f"{workload}-seed{args.seed}-spans.jsonl"
        passes.append((1, run_worker(
            deadline, args.seed, *common, "--trace", 1, "--spans", spans)))
    failures, attempted = [], 0
    for traced, result in passes:
        write_rows(out_dir / f"{workload}-seed{args.seed}-trace{traced}.jsonl",
                   workload, result, traced)
        failures += gate_failures(result)
        attempted += len(result["rows"])
    untraced = passes[0][1]
    notes += describe(workload, untraced)
    if args.trace:
        traced = passes[1][1]
        metrics = dict(traced["layers"])
        metrics[OVERHEAD[0]] = (sum(reference_seconds(traced))
                                - sum(reference_seconds(untraced)))
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        setups = [
            run_worker(deadline, args.seed, *common, "--setup-only")
            for _ in range(SETUP_SAMPLES)
        ]
        metrics, tail_notes = end_to_end(untraced, setups)
        notes += [f"{workload}: {n}" for n in tail_notes]
        units = {name: unit for name, unit, _ in END_TO_END}
    for r in failures:
        notes.append(f"{workload}: FAILED {r['key']} {r['expression']!r} "
                     f"{r['outcome']} {r.get('mismatches') or r.get('error')}")
    return {name: (metrics[name], units[name]) for name in units}, notes, \
        attempted, len(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong", action="store_true",
                        help="replace one answer with a wrong set (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "knapsolve" / "__init__.py").is_file():
        print(f"no knapsolve package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        deadline = perf_counter() + RUN_DEADLINE
        try:
            values, notes, n, bad = run_workload(workload, args, deadline, out_dir)
        except WorkerError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 3
        attempted += n
        failed += bad
        for line in notes:
            print(line)
        for name, (value, unit) in values.items():
            print(f"{workload}: {name} = {value:.6g} {unit}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
