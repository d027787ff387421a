"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload solve-corpus --seed 1 --seconds 20 --trace 0

Imports knapsolve from src/ of the checkout, builds the groups and
parses the expressions (the set-up), then runs every instance of the
workload's corpus in the seeded order, one at a time in this thread,
each under a wall-clock limit (the timed loop).  After the loop, and
outside it, every answer is checked against knapsolve.oracle.compare.
Prints one JSON object with the timings and a row per instance.

--setup-only stops after the set-up and reports its duration.
--save FILE solves the verify-replay corpus and writes the answers to
FILE instead; --saved FILE replays them, as `knapsolve verify` does.
--inject-wrong replaces one answer (or saved result) with a wrong set,
to show that the oracle gate trips.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402

#: workload -> (corpus builder, timed seconds per unit of the builder's
#: size, per-instance limit in seconds of the machine REFERENCE_S was set
#: on).  The solvers run with their default budgets, as `knapsolve solve`
#: does, so the limit is what ends a stalled search.  Each limit sits in
#: a gap of its corpus's solve times, so that few outcomes flip with the
#: machine's speed or the instance order: solve-corpus answers within
#: 1.45 s or needs more than 2.2 s; solve-repeated answers within 0.7 s or
#: needs more than 1.4 s, but for z-in-z-index-2/rep/21 (0.7-0.9 s), which
#: flaps.  verify-replay's checks all end, within about 4 s.
WORKLOADS = {
    "solve-corpus": (corpus.solve_corpus, 4.0, 1.65),
    "solve-repeated": (corpus.solve_repeated, 0.9, 0.9),
    "verify-replay": (corpus.verify_replay, 3.5, 15.0),
}
#: limit of the solves that make verify-replay's saved results (degree
#: 1-2 solves answer within 0.6 s or need more than 6 s)
SAVE_LIMIT = 1.65
#: wall-clock guard on the untimed oracle checks
GUARD_SECONDS = 20.0
#: duration of reference_job on the machine the constants were set on
#: (2 vCPUs, Python 3.11.7)
REFERENCE_S = 0.0095
#: solver seconds between two samples of the machine's speed
SAMPLE_EVERY = 0.2


class InstanceTimeout(BaseException):
    """Raised by SIGALRM when an instance exceeds its limit.

    A BaseException, so that no handler inside the solver can swallow it.
    """


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def call_with_limit(limit, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_job():
    """Fixed pure-Python work outside knapsolve: tuple hashing, dict
    lookups and sorting, the operations the solver spends its time on."""
    seen = {}
    words = []
    for i in range(5000):
        word = (i % 7, (i * 31) % 17, i % 5, i % 13)
        key = frozenset(word)
        seen[key] = seen.get(key, 0) + 1
        words.append(word[::-1])
    words.sort()
    return len(seen) + len(words)


class SpeedGauge:
    """How fast this machine runs Python right now, against REFERENCE_S.

    The speed of a shared virtual machine drifts by tens of percent
    within a minute, and a process's CPU time drifts with it.  The gauge
    times reference_job between instances, every SAMPLE_EVERY seconds of
    solver time, so that its samples follow the solves.  factor is the
    mean of the latest SPAN samples over REFERENCE_S: 1.5 means the
    machine runs this code 1.5 times slower than the one the constants
    were set on, and a time divided by it is in that machine's seconds.
    """

    SPAN = 30

    def __init__(self, samples):
        self.durations = []
        self.since = 0.0
        for _ in range(samples):
            self.sample()

    def sample(self):
        start = perf_counter()
        reference_job()
        self.durations.append(perf_counter() - start)
        self.since = 0.0

    def after(self, seconds):
        self.since += seconds
        if self.since >= SAMPLE_EVERY:
            self.sample()

    @property
    def factor(self):
        return statistics.fmean(self.durations[-self.SPAN:]) / REFERENCE_S


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def size_for(workload, seconds):
    return max(1, round(seconds / WORKLOADS[workload][1]))


def sorted_json(sols):
    """Canonical solve JSON: components sorted, as `knapsolve solve` prints."""
    data = sols.to_json_dict()
    data["components"].sort(key=lambda c: (c["base"], c["periods"]))
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class Pass:
    """The set-up, timed loop and oracle gate of one workload pass."""

    def __init__(self, args):
        self.args = args
        self.verify = args.workload == "verify-replay" and not args.save
        start = perf_counter()
        import knapsolve
        import knapsolve.oracle

        if not Path(knapsolve.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"knapsolve imported from {knapsolve.__file__}")
        self.ks = knapsolve
        self.search_counts = Counter()
        self.tracer = None
        if not args.setup_only:
            tracing.count_searches(self.search_counts)
        if args.trace:
            self.tracer = tracing.Tracer()
            self.tracer.install()
            self.tracer.recording = True
        self.instances = WORKLOADS[args.workload][0](
            size_for(args.workload, args.seconds))
        groups = {i.group for i in self.instances}
        # from JSON text, as `knapsolve solve` reads a group file
        self.backends = {
            g: knapsolve.build_backend(json.loads(json.dumps(corpus.GROUPS[g][0])))
            for g in groups
        }
        self.exprs = {i.key: knapsolve.parse_expr(i.text) for i in self.instances}
        self.setup_s = perf_counter() - start
        if self.tracer:
            self.tracer.recording = False

    def solve(self, inst, diagnostics):
        """The per-constructor solve function that `knapsolve solve` uses,
        with its default budgets."""
        ks = self.ks
        backend, e = self.backends[inst.group], self.exprs[inst.key]
        for cls, fn in ((ks.FiniteExtBackend, ks.solve_exponent_finite_ext),
                        (ks.GraphProductBackend, ks.solve_exponent_graph_product),
                        (ks.HnnBackend, ks.solve_exponent_hnn),
                        (ks.AmalgamBackend, ks.solve_exponent_amalgam)):
            if isinstance(backend, cls):
                return fn(backend, e, diagnostics=diagnostics)
        return ks.solve_exponent(backend, e)

    def replay(self, inst, diagnostics):
        """`knapsolve verify`: load a saved result, compare it on the box."""
        sols = self.ks.SemilinearSet.from_json_dict(
            json.loads(self.saved[inst.key]["json"]))
        return self.compare(inst, sols)

    def compare(self, inst, sols):
        return self.ks.oracle.compare(
            self.backends[inst.group], self.exprs[inst.key], sols, inst.box)

    def wrong_answer(self, sols, box):
        """A set that differs from sols somewhere on [0, box]^deg."""
        names = tuple(sols.vars)
        if len(sols.points_in_box(box)) == (box + 1) ** len(names):
            return self.ks.SemilinearSet.empty(names)
        return self.ks.SemilinearSet.universe(names)

    def save(self, path):
        """Write the answered solves of the timed loop for verify-replay."""
        saved = {
            r["key"]: {"json": sorted_json(self.answers[r["key"]]),
                       "complete": r["diagnostics"].get("complete", True)}
            for r in self.rows if r["outcome"] == "answered"
        }
        Path(path).write_text(json.dumps(saved, sort_keys=True), encoding="utf-8")
        return {"saved": len(saved), "excluded": len(self.rows) - len(saved)}

    def load(self, path):
        """Read verify-replay's saved results, made by another worker.

        Instances whose solve was not answered within the limit have no
        saved result and are left out.
        """
        self.saved = json.loads(Path(path).read_text(encoding="utf-8"))
        self.excluded = len(self.instances) - len(self.saved)
        self.instances = [i for i in self.instances if i.key in self.saved]
        if self.args.inject_wrong and self.instances:
            first = self.instances[0]
            sols = self.ks.SemilinearSet.from_json_dict(
                json.loads(self.saved[first.key]["json"]))
            self.saved[first.key]["json"] = sorted_json(
                self.wrong_answer(sols, first.box))

    def timed_loop(self, run_one, limit):
        self.rows, self.answers = [], {}
        order = corpus.run_order(self.instances, self.args.seed)
        self.gauge = SpeedGauge(samples=SpeedGauge.SPAN + 2)
        if self.tracer:
            self.tracer.recording = True
        loop_start = perf_counter()
        calibration = 0.0
        for index, inst in enumerate(order):
            diagnostics, error = {}, None
            states_before = self.states()
            factor = self.gauge.factor
            if self.tracer:
                self.tracer.start_instance(index)
            start = perf_counter()
            try:
                self.answers[inst.key] = call_with_limit(
                    limit * factor, run_one, inst, diagnostics)
                outcome = "answered"
            except InstanceTimeout:
                outcome = "timeout"
            except self.ks.BudgetExceededError:
                outcome = "budget"
            except Exception:  # noqa: BLE001 - a run records every failure
                outcome = "error"
                error = traceback.format_exc(limit=-3)
            seconds = perf_counter() - start
            if self.tracer:
                self.tracer.end_instance()
            self.rows.append({
                "key": inst.key, "group": inst.group, "expression": inst.text,
                "degree": inst.degree, "seconds": seconds, "outcome": outcome,
                "states": self.states() - states_before,
                "diagnostics": diagnostics, "error": error, "speed_factor": factor,
                "peak_rss_mb": peak_rss_mb(),
            })
            start = perf_counter()
            self.gauge.after(seconds)
            calibration += perf_counter() - start
        self.wall_s = perf_counter() - loop_start - calibration
        self.peak_rss_mb = peak_rss_mb()
        if self.tracer:
            self.tracer.recording = False
        self.loop_counts = Counter(self.search_counts)

    def states(self):
        return sum(v for k, v in self.search_counts.items()
                   if k.endswith(".states"))

    def gate(self):
        """Check every answer with the oracle; digest the sorted answers."""
        by_key = {i.key: i for i in self.instances}
        answered = sorted(
            (r for r in self.rows if r["outcome"] == "answered"),
            key=lambda r: r["key"])
        if self.args.inject_wrong and answered and not self.verify:
            key = answered[0]["key"]
            self.answers[key] = self.wrong_answer(self.answers[key], by_key[key].box)
        digest = hashlib.sha256()
        for row in answered:
            inst = by_key[row["key"]]
            if self.verify:
                report = self.answers[inst.key]
                result_json = self.saved[inst.key]["json"]
                row["complete"] = self.saved[inst.key]["complete"]
            else:
                sols = self.answers[inst.key]
                result_json = sorted_json(sols)
                row["components"] = len(sols.components)
                row["complete"] = row["diagnostics"].get("complete", True)
                try:
                    report = call_with_limit(GUARD_SECONDS, self.compare, inst, sols)
                except InstanceTimeout:
                    report = {"ok": False, "mismatches": ["oracle check timed out"]}
            row["oracle_ok"] = report["ok"]
            if not report["ok"]:
                row["mismatches"] = report["mismatches"][:3]
            row["result_sha256"] = hashlib.sha256(result_json.encode()).hexdigest()
            digest.update(f"{inst.key}\t{result_json}\n".encode())
        self.digest = digest.hexdigest()


def run(args):
    one = Pass(args)
    if args.setup_only:
        gauge = SpeedGauge(samples=SpeedGauge.SPAN)
        return {"setup_s": one.setup_s, "speed_factor": gauge.factor}
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.save:
        one.timed_loop(one.solve, SAVE_LIMIT)
        return one.save(args.save)
    if one.verify:
        one.load(args.saved)
    one.timed_loop(one.replay if one.verify else one.solve,
                   WORKLOADS[args.workload][2])
    start = perf_counter()
    one.gate()
    out = {
        "setup_s": one.setup_s, "wall_s": one.wall_s,
        "speed_samples": len(one.gauge.durations),
        "peak_rss_mb": one.peak_rss_mb,
        "gate_s": perf_counter() - start, "limit": WORKLOADS[args.workload][2],
        "digest": one.digest, "rows": one.rows,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
    }
    if one.verify:
        out["excluded"] = one.excluded
    if one.tracer:
        out["layers"] = one.tracer.layer_metrics(one.loop_counts)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for span in one.tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the traced spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--save", help="file for verify-replay's saved results")
    parser.add_argument("--saved", help="verify-replay's saved results")
    parser.add_argument("--inject-wrong", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
