"""A solve's work follows its input, not the hash seed.

The reduction searches number their records in the order they first
meet them, and an outcome's records reach the pair join and the nested
solves in that order.  Over Z4 *_{Z2} Z6, whose HNN embedding has the
free product Z4 * Z6 as its base, the answer and the whole report of a
solve must then be the same under every PYTHONHASHSEED; each seed needs
its own process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import knapsolve

AMALGAM_Z4_Z6 = {
    "type": "Amalgam",
    "left": {"type": "CyclicGroup", "order": 4, "generator": "a"},
    "right": {"type": "CyclicGroup", "order": 6, "generator": "b"},
    "phi1": [["a", "a"]], "phi2": [["b", "b", "b"]],
}
EXPRESSIONS = ("(b')^x (b b)^y b", "(b' b')^x b (a' a' a)^y")

SOLVE = """
import json, sys
from knapsolve import parse_expr, solve_exponent
group, texts = json.loads(sys.argv[1]), json.loads(sys.argv[2])
out = []
for text in texts:
    diagnostics = {}
    answer = solve_exponent(group, parse_expr(text), diagnostics=diagnostics)
    out.append([answer.to_json_dict(), diagnostics])
print(json.dumps(out, sort_keys=True))
"""


def solve_under(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    src = str(Path(knapsolve.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE, json.dumps(AMALGAM_Z4_Z6),
         json.dumps(EXPRESSIONS)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_amalgam_solves_do_the_same_work_under_every_hash_seed():
    runs = {seed: solve_under(seed) for seed in (0, 1, 5)}
    assert runs[1] == runs[0]
    assert runs[5] == runs[0]
    # the searches ran, and the work they did is pinned
    assert [report["states"] for _answer, report in runs[0]] == [28, 120]
