"""The experiment runner: executes (benchmark x policy x depth) sweeps.

One *cell* of the sweep runs a freshly generated benchmark program under a
policy at several sampling phases and keeps the best run (minimum total
cycles), mirroring the paper's best-of-N methodology for its
non-deterministic timer-sampled system.  The benchmark program is shared
by every phase run, and by consecutive cells of the same benchmark in one
process, so a sweep builds each program once per pass (generation is
seed-deterministic and each :class:`AdaptiveRuntime` owns its own
hierarchy and code cache, so regenerating it would be pure waste).

Cells are independent, so the sweep fans out over worker processes.  The
pool layer is fault tolerant: a cell whose worker crashes or raises is
retried once serially and then recorded as a structured
:class:`CellFailure` instead of killing the sweep, a per-cell timeout
bounds stragglers, and when process pools are unavailable the sweep
degrades to in-process execution.  Each finished cell is persisted
immediately through the content-addressed per-cell cache
(:mod:`repro.experiments.cell_cache`), making interrupted sweeps
resumable: ``run_sweep`` first loads every valid cached cell and only
dispatches the missing ones.

Results are plain dataclasses; :class:`SweepResults` offers the lookups
the figure formatters need plus JSON (de)serialization so expensive
sweeps can be cached on disk.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.aos.listeners import TerminationStatsProbe
from repro.aos.runtime import AdaptiveRuntime, RunResult
from repro.experiments.cell_cache import (CellCache, cell_cache_root,
                                          result_from_dict, result_to_dict)
from repro.experiments.config import SweepConfig
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.policies import make_policy
from repro.provenance.recorder import ProvenanceRecorder
from repro.provenance.records import ProvenanceRecord
from repro.telemetry.progress import ProgressTracker
from repro.telemetry.recorder import TelemetryRecorder, TelemetrySnapshot
from repro.workloads.spec import GeneratedBenchmark, build_benchmark

#: Key identifying one sweep cell.
CellKey = Tuple[str, str, int]  # (benchmark, family, depth)

#: Worker attempts per cell before a failure is recorded (the pool
#: attempt plus one serial retry).
MAX_CELL_ATTEMPTS = 2


def run_single(benchmark: str, family: str, depth: int,
               phase: float = 0.0, scale: float = 1.0,
               costs: CostModel = DEFAULT_COSTS,
               probe: Optional[TerminationStatsProbe] = None,
               telemetry: Optional[TelemetryRecorder] = None,
               provenance: Optional[ProvenanceRecorder] = None,
               progress: Optional[ProgressTracker] = None,
               generated: Optional[GeneratedBenchmark] = None) -> RunResult:
    """Run one benchmark under one policy at one sampling phase.

    ``generated`` lets callers reuse an already-built benchmark program
    (it is read-only to the runtime); without it the benchmark is built
    from scratch.  A ``progress`` tracker records main-loop throughput
    marks into ``RunResult.progress_points`` (zero-overhead, like
    telemetry and provenance).
    """
    if generated is None:
        generated = build_benchmark(benchmark, scale=scale)
    policy = make_policy(family, depth, costs)
    runtime = AdaptiveRuntime(generated.program, policy, costs,
                              probe=probe, sample_phase=phase,
                              telemetry=telemetry, provenance=provenance,
                              progress=progress)
    return runtime.run()


def decision_log_meta(benchmark: str, family: str, depth: int,
                      phase: float, scale: float,
                      result: RunResult) -> Dict[str, object]:
    """JSONL header metadata for one run's decision log.

    Carries the run-level metrics ``repro decisions diff`` attributes
    flips to (cycles, live code space, guard traffic) plus enough
    identity to label the diff.
    """
    return {
        "label": f"{benchmark}/{family}/max{depth}@{phase:g}",
        "benchmark": benchmark,
        "family": family,
        "depth": depth,
        "phase": phase,
        "scale": scale,
        "total_cycles": result.total_cycles,
        "live_opt_code_bytes": result.live_opt_code_bytes,
        "opt_code_bytes": result.opt_code_bytes,
        "opt_compilations": result.opt_compilations,
        "guard_tests": result.guard_tests,
        "guard_misses": result.guard_misses,
    }


#: ``(header meta, records)`` of one cell's best-run decision log.
DecisionLog = Tuple[Dict[str, object], List[ProvenanceRecord]]


def run_cell(benchmark: str, family: str, depth: int,
             phases: Sequence[float], scale: float = 1.0,
             costs: CostModel = DEFAULT_COSTS,
             probe: Optional[TerminationStatsProbe] = None,
             collect_telemetry: bool = False,
             collect_provenance: bool = False,
             generated: Optional[GeneratedBenchmark] = None) \
        -> Union[RunResult, Tuple]:
    """Best-of-phases run for one sweep cell (paper methodology).

    The benchmark program is generated once and shared by all phase runs;
    every :class:`AdaptiveRuntime` builds its own hierarchy, code cache,
    and profile state, so runs stay independent.  ``generated`` passes in
    a program already built for ``(benchmark, scale)``, shared the same
    way.

    When a ``probe`` is passed, each phase runs under its own fresh
    :class:`TerminationStatsProbe` and only the *best* run's probe state
    is folded into the caller's probe -- the termination statistics then
    describe the run actually reported, not a mixture of all N attempts.
    With ``collect_telemetry`` each phase likewise runs under a fresh
    :class:`TelemetryRecorder` and the best run's frozen snapshot is
    returned alongside its :class:`RunResult`; with
    ``collect_provenance`` the best run's :data:`DecisionLog` (header
    meta plus record stream) is appended to the return tuple.  The
    return shape follows the flags: ``result``,
    ``(result, snapshot)``, ``(result, log)``, or
    ``(result, snapshot, log)``.
    """
    if generated is None:
        generated = build_benchmark(benchmark, scale=scale)
    best: Optional[RunResult] = None
    best_snapshot: Optional[TelemetrySnapshot] = None
    best_log: Optional[DecisionLog] = None
    best_probe: Optional[TerminationStatsProbe] = None
    for phase in phases:
        recorder = None
        if collect_telemetry:
            recorder = TelemetryRecorder(
                label=f"{benchmark}/{family}/max{depth}@{phase:g}")
        provenance = None
        if collect_provenance:
            provenance = ProvenanceRecorder(
                label=f"{benchmark}/{family}/max{depth}@{phase:g}")
        phase_probe = None
        if probe is not None:
            phase_probe = TerminationStatsProbe(costs, horizon=probe.horizon)
        result = run_single(benchmark, family, depth, phase, scale, costs,
                            probe=phase_probe, telemetry=recorder,
                            provenance=provenance, generated=generated)
        if best is None or result.total_cycles < best.total_cycles:
            best = result
            best_probe = phase_probe
            if recorder is not None:
                best_snapshot = recorder.snapshot()
            if provenance is not None:
                best_log = (decision_log_meta(benchmark, family, depth,
                                              phase, scale, result),
                            provenance.records)
    assert best is not None
    if probe is not None and best_probe is not None:
        probe.absorb(best_probe)
    extras: List[object] = []
    if collect_telemetry:
        assert best_snapshot is not None
        extras.append(best_snapshot)
    if collect_provenance:
        assert best_log is not None
        extras.append(best_log)
    if extras:
        return (best, *extras)
    return best


#: The last program a cell worker built, as ``{(benchmark, scale):
#: generated}``.  Sweep cells come benchmark-major, so consecutive cells
#: in one process (the in-process path, or one pool worker) build the
#: same program; a program is read-only to every run, exactly as
#: :func:`run_cell` already shares one across its phases.
_last_built: Dict[Tuple[str, float], GeneratedBenchmark] = {}


def _shared_build(benchmark: str, scale: float) -> GeneratedBenchmark:
    key = (benchmark, scale)
    generated = _last_built.get(key)
    if generated is None:
        _last_built.clear()
        generated = _last_built[key] = build_benchmark(benchmark,
                                                       scale=scale)
    return generated


def _cell_worker(args) \
        -> Tuple[CellKey, RunResult, Optional[TelemetrySnapshot],
                 Optional[DecisionLog]]:
    (benchmark, family, depth, phases, scale, probe,
     collect_telemetry, collect_provenance) = args
    snapshot: Optional[TelemetrySnapshot] = None
    log: Optional[DecisionLog] = None
    outcome = run_cell(benchmark, family, depth, phases, scale,
                       probe=probe, collect_telemetry=collect_telemetry,
                       collect_provenance=collect_provenance,
                       generated=_shared_build(benchmark, scale))
    if collect_telemetry and collect_provenance:
        result, snapshot, log = outcome
    elif collect_telemetry:
        result, snapshot = outcome
    elif collect_provenance:
        result, log = outcome
    else:
        result = outcome
    return (benchmark, family, depth), result, snapshot, log


@dataclass
class CellFailure:
    """One cell that could not produce a result, with why and how hard
    the harness tried; recorded in :class:`SweepResults` instead of
    killing the sweep."""

    benchmark: str
    family: str
    depth: int
    error_type: str
    message: str
    attempts: int

    @property
    def key(self) -> CellKey:
        return (self.benchmark, self.family, self.depth)


@dataclass
class SweepResults:
    """All cell results of one sweep, with baseline-relative queries."""

    config: SweepConfig
    cells: Dict[CellKey, RunResult]
    #: Per-cell telemetry snapshots when the sweep ran with
    #: ``collect_telemetry``; ``None`` otherwise.  Deliberately excluded
    #: from the JSON cache (the on-disk format is unchanged), so loading a
    #: cached sweep yields ``telemetry=None``.
    telemetry: Optional[Dict[CellKey, TelemetrySnapshot]] = None
    #: Cells that failed even after retry, keyed like ``cells``.
    failures: Dict[CellKey, CellFailure] = field(default_factory=dict)

    # -- lookups ---------------------------------------------------------------

    def result(self, benchmark: str, family: str, depth: int) -> RunResult:
        return self.cells[(benchmark, family, depth)]

    def baseline(self, benchmark: str) -> RunResult:
        return self.cells[(benchmark, "cins", 1)]

    def speedup_percent(self, benchmark: str, family: str,
                        depth: int) -> float:
        """Wall-clock speedup over cins, as plotted in Figure 4."""
        base = self.baseline(benchmark).total_cycles
        new = self.result(benchmark, family, depth).total_cycles
        return 100.0 * (base / new - 1.0)

    def code_size_percent(self, benchmark: str, family: str,
                          depth: int) -> float:
        """Optimized code-space change vs cins (Figure 5; negative good)."""
        base = self.baseline(benchmark).live_opt_code_bytes
        new = self.result(benchmark, family, depth).live_opt_code_bytes
        if base == 0:
            return 0.0
        return 100.0 * (new / base - 1.0)

    def compile_time_percent(self, benchmark: str, family: str,
                             depth: int) -> float:
        """Optimizing-compile-time change vs cins (negative good)."""
        base = self.baseline(benchmark).opt_compile_cycles
        new = self.result(benchmark, family, depth).opt_compile_cycles
        if base == 0:
            return 0.0
        return 100.0 * (new / base - 1.0)

    # -- persistence ---------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "config": dataclasses.asdict(self.config),
            "cells": [
                {"key": list(key), "result": result_to_dict(result)}
                for key, result in sorted(self.cells.items())
            ],
        }
        if self.failures:
            payload["failures"] = [dataclasses.asdict(self.failures[key])
                                   for key in sorted(self.failures)]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SweepResults":
        payload = json.loads(text)
        raw_config = payload["config"]
        for field_name in ("benchmarks", "families", "depths", "phases"):
            raw_config[field_name] = tuple(raw_config[field_name])
        config = SweepConfig(**raw_config)
        cells: Dict[CellKey, RunResult] = {}
        for entry in payload["cells"]:
            key = tuple(entry["key"])
            cells[key] = result_from_dict(entry["result"])
        failures: Dict[CellKey, CellFailure] = {}
        for raw in payload.get("failures", []):
            failure = CellFailure(**raw)
            failures[failure.key] = failure
        return cls(config=config, cells=cells, failures=failures)


# -- the fault-tolerant cell executors -----------------------------------------

#: ``finish(key, result, snapshot, log)`` / ``fail(key, failure)`` sinks.
_FinishFn = Callable[[CellKey, RunResult, Optional[TelemetrySnapshot],
                      Optional[DecisionLog]], None]
_FailFn = Callable[[CellKey, "CellFailure"], None]


def _run_cell_with_retry(key: CellKey, args, finish: _FinishFn,
                         fail: _FailFn, attempts_before: int = 0,
                         worker=None) -> None:
    """Run one cell in-process; retry up to :data:`MAX_CELL_ATTEMPTS`.

    ``attempts_before`` counts attempts already burned on a worker pool
    (a crashed or erroring worker), so a pool failure gets exactly one
    serial retry before the failure is recorded.  ``worker`` swaps the
    cell function (the causal-profiler grid reuses this fault-tolerance
    layer with its own worker); it must return the same
    ``(key, result, snapshot, log)`` shape as :func:`_cell_worker`.
    """
    if worker is None:
        worker = _cell_worker
    attempts = attempts_before
    last: Optional[BaseException] = None
    while attempts < MAX_CELL_ATTEMPTS:
        attempts += 1
        try:
            _key, result, snapshot, log = worker(args)
        except Exception as exc:
            last = exc
            continue
        finish(key, result, snapshot, log)
        return
    assert last is not None
    fail(key, CellFailure(
        benchmark=key[0], family=key[1], depth=key[2],
        error_type=type(last).__name__, message=str(last),
        attempts=attempts))


def _run_cells_parallel(pending: Sequence[CellKey], args_for, jobs: int,
                        timeout: Optional[float], finish: _FinishFn,
                        fail: _FailFn, worker=None) -> List[CellKey]:
    """Fan pending cells out over a process pool, fault-tolerantly.

    Returns the cells that still need in-process execution: all of them
    when no pool could be created (platforms without working
    ``multiprocessing``), or the cells stranded when a worker crash broke
    the pool.  In-worker exceptions are retried once serially right here;
    per-cell timeouts become recorded failures (the cell already proved
    it exceeds its budget, so it is not retried).  ``worker`` swaps the
    cell function (see :func:`_run_cell_with_retry`); it must be
    picklable (module-level).
    """
    if worker is None:
        worker = _cell_worker
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool
        executor = ProcessPoolExecutor(max_workers=jobs)
        futures = [(key, executor.submit(worker, args_for(key)))
                   for key in pending]
    except Exception as exc:
        warnings.warn(
            f"worker pool unavailable ({type(exc).__name__}: {exc}); "
            f"running sweep cells in-process",
            RuntimeWarning, stacklevel=3)
        return list(pending)

    stranded: List[CellKey] = []
    try:
        for key, future in futures:
            try:
                _key, result, snapshot, log = future.result(timeout=timeout)
            except FutureTimeout:
                future.cancel()
                fail(key, CellFailure(
                    benchmark=key[0], family=key[1], depth=key[2],
                    error_type="TimeoutError",
                    message=f"cell exceeded the per-cell timeout "
                            f"of {timeout:g}s",
                    attempts=1))
            except BrokenProcessPool:
                # The pool lost a worker process (crash/OOM-kill); the
                # cells it still owed us run serially instead.
                stranded.append(key)
            except Exception:
                _run_cell_with_retry(key, args_for(key), finish, fail,
                                     attempts_before=1, worker=worker)
            else:
                finish(key, result, snapshot, log)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return stranded


def run_sweep(config: Optional[SweepConfig] = None,
              verbose: bool = False,
              collect_telemetry: bool = False,
              cache: Optional[CellCache] = None) -> SweepResults:
    """Run the full sweep, fanning cells out over worker processes.

    With a ``cache``, every valid cached cell is loaded up front and only
    the missing cells are dispatched; each fresh result is persisted the
    moment its worker finishes, so an interrupted sweep resumes where it
    died.  Cells that fail even after retry land in
    ``SweepResults.failures`` instead of aborting the sweep.

    With ``collect_telemetry`` every *freshly run* cell's best run
    carries a frozen :class:`TelemetrySnapshot` back from its worker
    process; cells served from the cache have no snapshot (see
    :func:`repro.telemetry.aggregate.merge_cell_telemetry` for combining
    partial maps across resumed runs).

    With ``config.decision_logs`` every freshly run cell's best run also
    carries its decision-provenance record stream back, persisted as
    ``<fingerprint>.decisions.jsonl`` beside the cached result.  A cached
    cell whose log is missing (e.g. cached by a sweep without the flag)
    is re-run so the log exists -- recording cannot change the result
    (zero-overhead contract), so the rerun reproduces the cached bits.
    """
    if config is None:
        config = SweepConfig()
    cells = list(config.configurations())
    total = len(cells)
    results: Dict[CellKey, RunResult] = {}
    failures: Dict[CellKey, CellFailure] = {}
    telemetry: Optional[Dict[CellKey, TelemetrySnapshot]] = \
        {} if collect_telemetry else None
    if config.decision_logs and cache is None:
        warnings.warn(
            "decision_logs requested without a per-cell cache; logs have "
            "nowhere to go and will be discarded",
            RuntimeWarning, stacklevel=2)

    fingerprints: Dict[CellKey, str] = {}
    if cache is not None:
        fingerprints = {key: config.cell_fingerprint(*key) for key in cells}
        results.update(cache.load_many(fingerprints))
        if config.decision_logs:
            # Results without a decision log must re-run to produce one.
            results = {key: result for key, result in results.items()
                       if cache.has_decision_log(fingerprints[key])}
        if verbose and results:
            print(f"  resumed {len(results)}/{total} cell(s) "
                  f"from {cache.root}")

    pending = [key for key in cells if key not in results]
    done = len(results)

    def finish(key: CellKey, result: RunResult,
               snapshot: Optional[TelemetrySnapshot],
               log: Optional["DecisionLog"]) -> None:
        nonlocal done
        results[key] = result
        if telemetry is not None and snapshot is not None:
            telemetry[key] = snapshot
        if cache is not None:
            cache.store(fingerprints[key], key, result)
            if log is not None:
                meta, records = log
                cache.store_decision_log(fingerprints[key], records, meta)
        done += 1
        if verbose:
            print(f"  [{done}/{total}] done {key}")

    def fail(key: CellKey, failure: CellFailure) -> None:
        nonlocal done
        failures[key] = failure
        done += 1
        if verbose:
            print(f"  [{done}/{total}] FAILED {key}: "
                  f"{failure.error_type}: {failure.message}")

    def args_for(key: CellKey):
        return (key[0], key[1], key[2], config.phases, config.scale,
                None, collect_telemetry, config.decision_logs)

    if pending:
        jobs = config.jobs if config.jobs > 0 else (os.cpu_count() or 2)
        jobs = min(jobs, len(pending))
        if jobs > 1:
            pending = _run_cells_parallel(pending, args_for, jobs,
                                          config.cell_timeout, finish, fail)
        try:
            for key in pending:
                _run_cell_with_retry(key, args_for(key), finish, fail)
        finally:
            _last_built.clear()

    return SweepResults(config=config, cells=results, telemetry=telemetry,
                        failures=failures)


def _write_monolithic(cache_path: str, results: SweepResults) -> None:
    cache_dir = os.path.dirname(cache_path)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    with open(cache_path, "w") as handle:
        handle.write(results.to_json())


def _migrate_legacy_cells(legacy: SweepResults, cache: CellCache) -> None:
    """Seed the per-cell cache from a monolithic (legacy) sweep file.

    Entries are fingerprinted under the *legacy* config's phases and
    scale, so they are reused exactly when a new sweep would reproduce
    them -- including sweeps over a different benchmark/family subset.
    """
    for key, result in legacy.cells.items():
        fingerprint = legacy.config.cell_fingerprint(*key)
        if not cache.has(fingerprint):
            cache.store(fingerprint, key, result)


def load_or_run_sweep(cache_path: str,
                      config: Optional[SweepConfig] = None,
                      verbose: bool = False,
                      use_cache: bool = True,
                      resume: bool = True) -> SweepResults:
    """Load, resume, or run a sweep, keeping ``cache_path`` up to date.

    ``cache_path`` is the monolithic JSON snapshot (kept for the figure
    pipeline and as the fast path when its config matches exactly); the
    per-cell resumable cache lives beside it in
    ``cell_cache_root(cache_path)``.  A legacy monolithic file whose
    config does *not* match is migrated cell-by-cell into the per-cell
    cache, so its overlapping cells are still reused.  ``use_cache=False``
    ignores and overwrites every cache; ``resume=False`` keeps the
    monolithic fast path but skips the per-cell layer.
    """
    if config is None:
        config = SweepConfig()
    if not use_cache:
        results = run_sweep(config, verbose=verbose)
        _write_monolithic(cache_path, results)
        return results

    cache = CellCache(cell_cache_root(cache_path)) if resume else None
    legacy: Optional[SweepResults] = None
    if os.path.exists(cache_path):
        try:
            with open(cache_path) as handle:
                legacy = SweepResults.from_json(handle.read())
        except (ValueError, KeyError, TypeError) as exc:
            # Corrupt or structurally stale cache: say so before quietly
            # regenerating, so surprising re-runs are explicable.
            warnings.warn(
                f"sweep cache {cache_path!r} is unreadable "
                f"({type(exc).__name__}: {exc}); regenerating it",
                RuntimeWarning, stacklevel=2)
    if legacy is not None:
        if cache is not None:
            _migrate_legacy_cells(legacy, cache)
        if legacy.config == config and not legacy.failures:
            # With decision logs requested, the monolithic fast path is
            # only valid when every cell's log is actually on disk.
            if not config.decision_logs or (cache is not None and all(
                    cache.has_decision_log(config.cell_fingerprint(*key))
                    for key in config.configurations())):
                return legacy

    results = run_sweep(config, verbose=verbose, cache=cache)
    _write_monolithic(cache_path, results)
    return results
