"""The three workloads: inputs made from a seed, timed rounds, checks.

A workload is built once (its set-up) and then runs whole rounds.  A
round times only its body; anything it runs outside the body (the
deep-recursion probe of ``steady``) adds to no metric.  Every round of
one workload performs the same operations, so the simulated metrics of
every round are equal and the failed share of the operations is the
same however many rounds a run makes.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis import analyze_program
from repro.aos.cost_accounting import APP
from repro.aos.runtime import AdaptiveRuntime
from repro.experiments.cell_cache import CellCache
from repro.experiments.config import POLICY_FAMILIES, SweepConfig
from repro.experiments.runner import run_sweep
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.program import (Add, Arg, Const, If, Local, Lt, Return, Sub,
                               Work)
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder
from repro.telemetry import ProgressTracker, TelemetryRecorder
from repro.workloads.builder import ProgramBuilder
from repro.workloads.spec import BENCHMARK_ORDER, build_benchmark

import checks
from reference import Evaluator

STEADY_SCALE = 1.0
STEADY_POLICY = ("fixed", 2)
SWEEP_SCALE = 0.01
SWEEP_DEPTHS = (2, 4)
SWEEP_PHASES = 2
OBSERVED_SCALE = 0.05
OBSERVED_POLICY = ("cins", 1)
#: ``planned`` is left out: its guard-free sites enter the wrong inlined
#: body on some seeds (see CHANGES.md), and ``analyze_program``'s deopt
#: section runs it.  ``osr-exit`` still routes every guarded site
#: through the deopt planner.
OBSERVED_DEOPT_STRATEGY = "osr-exit"
#: Frames the probe recurses through; deeper than the interpreter's cap.
PROBE_DEPTH = 300
#: How the interpreter fails when a program recurses past its cap.
STACK_OVERFLOW = "ExecutionError: stack overflow"


@dataclass
class LoggedRun:
    """One ``AdaptiveRuntime.run``: its machine stats and result."""

    stats: object
    result: object


class RunLog:
    """Logs every ``AdaptiveRuntime.run`` while installed.

    The checks need each run's ``machine.stats`` and, in a sweep, the
    result of every phase, neither of which a ``RunResult`` carries.
    Logging costs one list append per run.  One program is kept per
    program name, for the reference evaluator: within a workload a name
    always denotes the same generated program.
    """

    def __init__(self) -> None:
        self.runs: List[LoggedRun] = []
        self.programs: Dict[str, object] = {}
        self._original = None

    def install(self) -> None:
        original = self._original = AdaptiveRuntime.__dict__["run"]
        runs, programs = self.runs, self.programs

        def run(runtime, *args, **kwargs):
            result = original(runtime, *args, **kwargs)
            programs.setdefault(runtime.program.name, runtime.program)
            runs.append(LoggedRun(runtime.machine.stats, result))
            return result
        AdaptiveRuntime.run = run

    def uninstall(self) -> None:
        AdaptiveRuntime.run = self._original


@dataclass
class Op:
    """One operation of a round, counted in ``attempted``."""

    name: str
    runs: List[LoggedRun] = field(default_factory=list)
    error: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    #: The error this operation is known to fail with today.
    expected_error: Optional[str] = None


@dataclass
class Round:
    """One round: the wall time of its body, its ops and its results."""

    wall_s: float
    ops: List[Op]
    #: The runs whose simulated figures the round reports.
    reported: List[object]
    #: Workload counts for the per-layer table.
    counts: Dict[str, int]
    #: Every adaptive run the round's body made.
    runs: List[LoggedRun]


def sim_metrics(results) -> Dict[str, float]:
    """The four simulated end-to-end figures of a round's reported runs."""
    return {
        "sim_mcycles": sum(r.total_cycles for r in results) / 1e6,
        "opt_code_kb": sum(r.opt_code_bytes for r in results) / 1024,
        "opt_compile_mcycles":
            sum(r.opt_compile_cycles for r in results) / 1e6,
        "aos_mcycles": sum(r.total_cycles - r.component_cycles[APP]
                           for r in results) / 1e6,
    }


def _try(op: Op, log: RunLog, fn):
    """Run ``fn`` as ``op``: log its runs, keep its error."""
    mark = len(log.runs)
    try:
        return fn()
    except Exception as exc:  # any failure fails the op, and only it
        op.error = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        op.runs = log.runs[mark:]


def deep_recursion_program():
    """``main`` calls ``down(PROBE_DEPTH)``; ``down(n)`` recurses to 0
    and returns n."""
    b = ProgramBuilder("deep-recursion")
    b.cls("Deep")
    b.static_method("Deep", "down", [
        Work(1),
        If(Lt(Const(0), Arg(0)), [
            b.call("Deep.down", [Sub(Arg(0), Const(1))], dst=0),
            Return(Add(Local(0), Const(1))),
        ]),
        Return(Const(0)),
    ], params=1, locals_=1)
    b.static_method("Deep", "main", [
        b.call("Deep.down", [Const(PROBE_DEPTH)], dst=0),
        Return(Local(0)),
    ], locals_=1)
    b.entry("Deep.main")
    return b.build()


class Workload:
    """Set-up in ``__init__``; ``run_round`` runs one round."""

    name = ""

    def __init__(self, seed: int, log: RunLog, out_dir: str):
        self.log = log
        self.out_dir = out_dir
        self.rng = random.Random(seed)

    def run_round(self) -> Round:
        """Run and time one round's body."""
        raise NotImplementedError

    def after_round(self, done: Round) -> None:
        """Untimed work after a round's body; adds ops to ``done``."""

    def check(self, rounds: List[Round]) -> List[Op]:
        """Check every logged run of every op; return all the ops."""
        references: Dict[str, object] = {}
        ops = [op for r in rounds for op in r.ops]
        for op in ops:
            for run in op.runs:
                name = run.result.program_name
                if name not in references:
                    references[name] = Evaluator(
                        self.log.programs[name]).run()
                op.problems += checks.reference_problems(
                    run.result, run.stats, references[name])
                op.problems += checks.property_problems(run.result,
                                                        run.stats)
        return ops

    def cleanup(self) -> None:
        """Remove what set-up and the rounds left in ``out_dir``."""


class Steady(Workload):
    """Eight full-scale runs under one context-sensitive policy."""

    name = "steady"

    def __init__(self, seed, log, out_dir):
        super().__init__(seed, log, out_dir)
        self.phase = self.rng.random()
        self.programs = [build_benchmark(b, STEADY_SCALE,
                                         seed_offset=seed).program
                         for b in BENCHMARK_ORDER]
        self.probe = deep_recursion_program()

    def run_round(self) -> Round:
        ops, reported = [], []
        mark = len(self.log.runs)
        start = time.perf_counter()
        for program in self.programs:
            op = Op(f"run {program.name}")
            result = _try(op, self.log, lambda: AdaptiveRuntime(
                program, make_policy(*STEADY_POLICY),
                sample_phase=self.phase).run())
            if result is not None:
                reported.append(result)
            ops.append(op)
        wall = time.perf_counter() - start
        return Round(wall, ops, reported, {}, self.log.runs[mark:])

    def after_round(self, done: Round) -> None:
        """The deep-recursion probe, outside the timed body."""
        probe = Op("deep-recursion probe", expected_error=STACK_OVERFLOW)
        _try(probe, self.log, lambda: AdaptiveRuntime(
            self.probe, make_policy(*STEADY_POLICY)).run())
        done.ops.append(probe)


class Sweep(Workload):
    """The paper's policy grid at a short scale, then a resume pass."""

    name = "sweep"

    def __init__(self, seed, log, out_dir):
        super().__init__(seed, log, out_dir)
        self.config = SweepConfig(
            families=POLICY_FAMILIES, depths=SWEEP_DEPTHS,
            phases=tuple(sorted(self.rng.random()
                                for _ in range(SWEEP_PHASES))),
            scale=SWEEP_SCALE, jobs=1)
        self.policy_names = {
            key: make_policy(key[1], key[2]).name
            for key in self.config.configurations()}
        self.cache_dirs: List[str] = []
        self.cache: Optional[CellCache] = self._fresh_cache()

    def _fresh_cache(self) -> CellCache:
        path = os.path.join(self.out_dir, f"cells-{os.getpid()}-"
                            f"{len(self.cache_dirs)}")
        os.makedirs(path)
        self.cache_dirs.append(path)
        return CellCache(path)

    def run_round(self) -> Round:
        # Set-up made the first round's cache; later rounds make theirs
        # here, before the timed body.
        cache, self.cache = self.cache or self._fresh_cache(), None
        mark = len(self.log.runs)
        start = time.perf_counter()
        computed = run_sweep(self.config, cache=cache)
        middle = len(self.log.runs)
        read = run_sweep(self.config, cache=cache)
        wall = time.perf_counter() - start

        runs = self.log.runs[mark:middle]
        rerun = len(self.log.runs) - middle
        by_cell: Dict[tuple, List[LoggedRun]] = {}
        for run in runs:
            by_cell.setdefault((run.result.program_name,
                                run.result.policy_name), []).append(run)
        read_back = checks.read_back_problems(computed.cells, read.cells,
                                              rerun)
        ops = []
        for key in self.config.configurations():
            label = "/".join(map(str, key))
            op = Op(f"cell {label}", by_cell.get(
                (key[0], self.policy_names[key]), []))
            failure = computed.failures.get(key)
            if failure is not None:
                op.error = f"{failure.error_type}: {failure.message}"
            elif key not in computed.cells:
                op.error = "cell missing from the sweep"
            else:
                op.problems += checks.best_phase_problems(
                    computed.cells[key], [r.result for r in op.runs],
                    len(self.config.phases))
            ops.append(op)
            ops.append(Op(f"read back {label}",
                          problems=read_back.get(key, ["cell not computed"])))
        reported = [computed.cells[key] for key in self.config.configurations()
                    if key in computed.cells]
        return Round(wall, ops, reported,
                     {"experiments.cells": len(computed.cells)}, runs)

    def cleanup(self) -> None:
        for path in self.cache_dirs:
            shutil.rmtree(path, ignore_errors=True)


class Observed(Workload):
    """Static analyses plus one observed, speculating run per program."""

    name = "observed"

    def __init__(self, seed, log, out_dir):
        super().__init__(seed, log, out_dir)
        self.phase = self.rng.random()
        self.programs = [build_benchmark(b, OBSERVED_SCALE,
                                         seed_offset=seed).program
                         for b in BENCHMARK_ORDER]
        self.costs = DEFAULT_COSTS.replace(speculation_enabled=True,
                                           deopt_planning_enabled=True,
                                           deopt_strategy=OBSERVED_DEOPT_STRATEGY)

    def run_round(self) -> Round:
        ops, reported = [], []
        counts = {"telemetry.spans": 0, "provenance.records": 0}
        mark = len(self.log.runs)
        start = time.perf_counter()
        for program in self.programs:
            analyze = Op(f"analyze {program.name}")
            report = _try(analyze, self.log, lambda: analyze_program(
                program, soundness=True, lattice=True, speculation=True,
                phase=self.phase))
            if report is not None:
                analyze.problems += checks.analysis_problems(report)
            telemetry = TelemetryRecorder(label=program.name)
            provenance = ProvenanceRecorder(label=program.name)
            run = Op(f"observed run {program.name}")
            result = _try(run, self.log, lambda: AdaptiveRuntime(
                program, make_policy(*OBSERVED_POLICY, costs=self.costs),
                self.costs, sample_phase=self.phase, telemetry=telemetry,
                provenance=provenance,
                progress=ProgressTracker(label=program.name)).run())
            if result is not None:
                reported.append(result)
            counts["telemetry.spans"] += len(telemetry.spans)
            counts["provenance.records"] += len(provenance.records)
            ops += [analyze, run]
        wall = time.perf_counter() - start
        return Round(wall, ops, reported, counts, self.log.runs[mark:])


WORKLOADS = {cls.name: cls for cls in (Steady, Sweep, Observed)}
