"""Summarize the runs logged in ``hostbench/out/runs.jsonl`` as Markdown.

From the repository root::

    python3 hostbench/summarize.py [path/to/runs.jsonl]

For each workload and metric: the number of runs, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the quartile spread as a share of the median.  Untraced and traced runs
are summarized apart; the calibration-loop times come last.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv) -> int:
    path = argv[1] if len(argv) > 1 else os.path.join(HERE, "out",
                                                     "runs.jsonl")
    with open(path) as handle:
        runs = [json.loads(line) for line in handle if line.strip()]
    groups = defaultdict(list)
    for run in runs:
        groups[(run["trace"], run["workload"])].append(run)
    for (trace, workload), group in sorted(groups.items()):
        kind = "traced" if trace else "untraced"
        seeds = ", ".join(str(r["seed"]) for r in group)
        failed = sorted({(r["failed"], r["attempted"]) for r in group})
        print(f"\n### {workload}, {kind}: {len(group)} runs "
              f"(seeds {seeds}); failed/attempted {failed}; "
              f"all correct: {all(r['correct'] for r in group)}\n")
        print("| metric | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|")
        for name in group[0]["metrics"]:
            values = [r["metrics"][name] for r in group]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            print(f"| {name} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {spread:.3f} |")
        calib = [c for r in group for c in r["calibration_s"]]
        print(f"\ncalibration loop: median {statistics.median(calib):.4f} s,"
              f" range {min(calib):.4f}-{max(calib):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
