"""Run one workload of the host-time benchmark and print its metrics.

From the repository root::

    python3 hostbench/run.py --workload steady --seed 1 --seconds 15 --trace 0

The workload runs in a fresh process (``worker.py``), started from here
one at a time.  Two more fresh processes only set the workload up, and
``setup_s`` is the median of the three set-up times.  With ``--trace 1``
the worker times one untraced and one traced round instead and the
metrics are the per-layer ones.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run
is also appended, with its calibration-loop times and every set-up
time, to ``hostbench/out/runs.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_PROCESSES = 3
#: A run must end within this many seconds of starting.
DEADLINE_S = 175.0


def spawn(args, deadline: float) -> dict:
    """Run one worker to its end; its last stdout line, parsed."""
    command = [sys.executable, WORKER, *args, "--t0", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        sys.exit("worker did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"worker failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady", "sweep", "observed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("no program to measure: src/repro is missing")

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(spawn(common + ["--setup-only"],
                                deadline)["setup_s"])
    run = spawn(common + ["--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
    setups.append(run["setup_s"])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run["metrics"].items()}
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"}, **metrics}

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "setup_s": setups, "round_wall_s": run["round_wall_s"],
            "calibration_s": run["calibration_s"],
            "attempted": run["attempted"], "failed": run["failed"],
            "correct": run["correct"]}) + "\n")
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
