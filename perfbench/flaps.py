"""List instances whose outcome or answer differs between runs.

    python3 perfbench/flaps.py perfbench/results/solve-corpus-seed*-trace0.jsonl

Reads rows files written by run.py and prints every instance key with
more than one outcome, or more than one answer digest, across them.
"""

import json
import sys
from collections import defaultdict


def main(paths):
    outcomes = defaultdict(lambda: defaultdict(int))
    digests = defaultdict(set)
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle][1:]
        for row in rows:
            outcomes[row["key"]][row["outcome"]] += 1
            if "result_sha256" in row:
                digests[row["key"]].add(row["result_sha256"])
    flaps = 0
    for key in sorted(outcomes):
        if len(outcomes[key]) > 1 or len(digests[key]) > 1:
            flaps += 1
            print(key, dict(outcomes[key]), f"{len(digests[key])} answers")
    print(f"{flaps} of {len(outcomes)} instances differ across {len(paths)} runs")


if __name__ == "__main__":
    main(sys.argv[1:])
