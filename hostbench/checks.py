"""Output checks: each returns a list of problems, empty when all hold.

A run is checked against the reference evaluator (what the program
computes) and against properties every run must have whatever the
policy (how the simulator accounts for it).  ``stats`` is the run's
``machine.stats``: the work units and virtual call sites executed are
counted there, not on the ``RunResult``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

from reference import Outcome, shape


def reference_problems(result, stats, expected: Outcome) -> List[str]:
    """Where a run disagrees with the reference evaluator."""
    problems = []
    if shape(result.return_value) != shape(expected.value):
        problems.append(f"returned {shape(result.return_value)!r}, "
                        f"reference {shape(expected.value)!r}")
    if stats.work_cycles != expected.work:
        problems.append(f"work units {stats.work_cycles}, "
                        f"reference {expected.work}")
    invocations = result.calls + result.inline_entries
    if invocations != expected.invocations:
        problems.append(f"invocations {invocations} (calls + inline "
                        f"entries), reference {expected.invocations}")
    if stats.virtual_calls != expected.virtual_calls:
        problems.append(f"virtual call sites executed "
                        f"{stats.virtual_calls}, reference "
                        f"{expected.virtual_calls}")
    return problems


def property_problems(result, stats) -> List[str]:
    """Where a run breaks an accounting property of the simulator."""
    problems = []
    parts = sum(result.component_cycles.values())
    if not math.isclose(parts, result.total_cycles, rel_tol=1e-9,
                        abs_tol=1e-6):
        problems.append(f"component cycles sum to {parts!r}, total is "
                        f"{result.total_cycles!r}")
    if result.guard_misses > result.guard_tests:
        problems.append(f"guard misses {result.guard_misses} exceed "
                        f"guard tests {result.guard_tests}")
    if result.dispatches > stats.virtual_calls:
        problems.append(f"dispatches {result.dispatches} exceed virtual "
                        f"call sites executed {stats.virtual_calls}")
    if result.live_opt_code_bytes > result.opt_code_bytes:
        problems.append(f"live optimized bytes {result.live_opt_code_bytes}"
                        f" exceed emitted bytes {result.opt_code_bytes}")
    return problems


def best_phase_problems(cell, phase_results: Sequence,
                        phases: int) -> List[str]:
    """Whether a sweep cell reports the minimum-cycle run of its phases."""
    if len(phase_results) != phases:
        return [f"{len(phase_results)} phase runs, expected {phases}"]
    best = min(r.total_cycles for r in phase_results)
    if cell.total_cycles != best:
        return [f"cell reports {cell.total_cycles!r} cycles, its best "
                f"phase ran {best!r}"]
    return []


def read_back_problems(computed: Mapping, read: Mapping,
                       rerun: int) -> Dict[object, List[str]]:
    """Per cell key: how the cache read-back differs from the computed
    cell.  ``rerun`` counts runs the read-back pass made; any rerun
    means the cache did not serve the cell, and fails every read-back."""
    out: Dict[object, List[str]] = {}
    for key, cell in computed.items():
        problems = []
        if rerun:
            problems.append(f"read-back pass re-ran {rerun} run(s)")
        if key not in read:
            problems.append("cell missing on read-back")
        elif read[key] != cell:
            problems.append("cell read back differs from the cell computed")
        out[key] = problems
    return out


def analysis_problems(report: Mapping) -> List[str]:
    """Every verifier and soundness section of ``analyze_program`` is ok."""
    problems = []
    for section in ("verifier", "soundness", "speculation"):
        body = report.get(section)
        if not isinstance(body, Mapping) or body.get("ok") is not True:
            problems.append(f"{section} section is not ok")
    return problems
