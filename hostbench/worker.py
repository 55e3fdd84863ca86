"""One fresh process of the host-time benchmark.

It sets a workload up, runs and times whole rounds of it, checks every
output and prints one JSON object as its last line.  ``run.py`` starts
it; to run one by hand, from the repository root::

    python3 hostbench/worker.py --workload steady --seed 1 --seconds 35 --trace 0

``--setup-only`` stops after set-up and reports only ``setup_s``.
``--t0`` is the ``time.monotonic()`` reading just before the process was
started, so that ``setup_s`` covers interpreter start-up too.
"""

import time

#: Read before the other imports: they are part of the set-up time.
START = time.monotonic()

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def calibrate() -> float:
    """Seconds taken by a fixed loop that uses only the interpreter."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - start


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady", "sweep", "observed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, RunLog, sim_metrics

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install_build(tracer)
    log = RunLog()
    workload = WORKLOADS[args.workload](args.seed, log, OUT)
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.monotonic() - (START if args.t0 is None else args.t0)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        log.install()
        calibration = [calibrate()]
        rounds = []
        if tracer is None:
            # Whole rounds, while one more of average length still ends
            # within --seconds.
            begin = time.perf_counter()
            while True:
                rounds.append(workload.run_round())
                workload.after_round(rounds[-1])
                elapsed = time.perf_counter() - begin
                if elapsed + elapsed / len(rounds) > args.seconds:
                    break
        else:
            # A warm-up round, the traced round, and the untraced round
            # its overhead is measured against.
            for traced in (False, True, False):
                if traced:
                    layers.install(tracer)
                rounds.append(workload.run_round())
                tracer.uninstall()
                workload.after_round(rounds[-1])
        calibration.append(calibrate())
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        log.uninstall()
        ops = workload.check(rounds)
    finally:
        workload.cleanup()

    problems = [f"{op.name}: {p}" for op in ops for p in op.problems]
    problems += [f"{op.name}: {op.error}" for op in ops
                 if op.error and not (op.expected_error and
                                      op.error.startswith(op.expected_error))]
    sims = [sim_metrics(r.reported) for r in rounds]
    problems += [f"round {i} simulated {sim}, round 0 {sims[0]}"
                 for i, sim in enumerate(sims) if sim != sims[0]]
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    if tracer is None:
        wall = statistics.median(r.wall_s for r in rounds)
        metrics = {
            "wall_s": (wall, "s"),
            "sim_mcycles_per_s": (sims[0]["sim_mcycles"] / wall, "Mcycles/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "sim_mcycles": (sims[0]["sim_mcycles"], "Mcycles"),
            "opt_code_kb": (sims[0]["opt_code_kb"], "KB"),
            "opt_compile_mcycles": (sims[0]["opt_compile_mcycles"], "Mcycles"),
            "aos_mcycles": (sims[0]["aos_mcycles"], "Mcycles"),
        }
    else:
        traced, untraced = rounds[1], rounds[2]
        values = layers.per_layer_metrics(tracer.times(), traced.runs,
                                          traced.counts, traced.wall_s,
                                          untraced.wall_s)
        metrics = {name: (values[name], unit)
                   for name, unit, _ in layers.PER_LAYER}
        tracer.write_chrome_trace(
            os.path.join(OUT, f"trace-{args.workload}.json"))

    print(json.dumps({
        "setup_s": setup_s,
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.error or op.problems),
        "metrics": metrics,
        "round_wall_s": [r.wall_s for r in rounds],
        "calibration_s": calibration,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
