"""The host execution tiers: tree-walker (cold) and closures (hot).

Which tier runs a body is a host-time choice only.  Forcing every body
into closures (threshold 1) or keeping every body in the tree-walker
(a threshold no run reaches) must reproduce the stock run bit for bit:
results, machine counters, decision logs, and every observer event.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings

from repro.analysis.soundness import (check_elision_soundness,
                                      check_osr_soundness,
                                      observe_context_edges)
from repro.aos.cost_accounting import CostAccounting
from repro.aos.runtime import AdaptiveRuntime
from repro.compiler.code_cache import CodeCache
from repro.experiments.cell_cache import result_to_dict
from repro.jvm import interpreter
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.jvm.errors import ExecutionError
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.interpreter import MAX_STACK_DEPTH, Machine, MachineStats
from repro.jvm.program import (S_LOOP, Add, Arg, Const, If, Local, Lt,
                               Return, StaticCall, Sub, Work)
from repro.policies import make_policy
from repro.provenance import ProvenanceRecorder
from repro.telemetry import ProgressTracker, TelemetryRecorder
from repro.workloads.builder import ProgramBuilder
from repro.workloads.spec import BENCHMARK_ORDER, build_benchmark

from test_properties_interpreter import bodies, build_program

#: Thresholds: every body compiled at first entry, the stock tiering,
#: and every body tree-walked for the whole run.
ALL_HOT, STOCK, ALL_COLD = 1, interpreter.HOT_ENTRY_THRESHOLD, 10 ** 9
THRESHOLDS = (ALL_HOT, STOCK, ALL_COLD)

#: Speculation alone gives guarded and elided sites; with planned
#: deoptimization, cheap-exit sites and loop OSR map-in charges.
SPECULATING = {
    "guards": DEFAULT_COSTS.replace(speculation_enabled=True),
    "planned": DEFAULT_COSTS.replace(speculation_enabled=True,
                                     deopt_planning_enabled=True,
                                     deopt_strategy="planned"),
}


def stats_of(machine) -> dict:
    return {name: getattr(machine.stats, name)
            for name in MachineStats.__slots__}


def observed_run(program, family, depth, costs, phase):
    """One adaptive run under every observer; its complete output."""
    telemetry = TelemetryRecorder(label=program.name)
    provenance = ProvenanceRecorder(label=program.name)
    progress = ProgressTracker(label=program.name)
    runtime = AdaptiveRuntime(program, make_policy(family, depth,
                                                   costs=costs),
                              costs, sample_phase=phase,
                              telemetry=telemetry, provenance=provenance,
                              progress=progress)
    result = runtime.run()
    return {
        "result": json.dumps(result_to_dict(result), sort_keys=True),
        "stats": stats_of(runtime.machine),
        "decisions": provenance.to_jsonl(),
        "spans": len(telemetry.spans),
    }


def bare_run(program, family, depth, costs, phase):
    runtime = AdaptiveRuntime(program, make_policy(family, depth,
                                                   costs=costs),
                              costs, sample_phase=phase)
    result = runtime.run()
    return {"result": json.dumps(result_to_dict(result), sort_keys=True),
            "stats": stats_of(runtime.machine)}


def per_threshold(monkeypatch, fn):
    outputs = {}
    for threshold in THRESHOLDS:
        monkeypatch.setattr(interpreter, "HOT_ENTRY_THRESHOLD", threshold)
        outputs[threshold] = fn()
    return outputs


@pytest.fixture(scope="module")
def programs():
    return {name: build_benchmark(name, 0.05).program
            for name in BENCHMARK_ORDER}


class TestPersonalitiesAgreeAcrossTiers:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_fixed2_without_observers(self, monkeypatch, programs, name):
        outputs = per_threshold(monkeypatch, lambda: bare_run(
            programs[name], "fixed", 2, DEFAULT_COSTS, 0.3))
        assert outputs[ALL_HOT] == outputs[STOCK] == outputs[ALL_COLD]

    @pytest.mark.parametrize("config", sorted(SPECULATING))
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_speculating_cins_under_observers(self, monkeypatch, programs,
                                              name, config):
        outputs = per_threshold(monkeypatch, lambda: observed_run(
            programs[name], "cins", 1, SPECULATING[config], 0.6))
        assert outputs[ALL_HOT] == outputs[STOCK] == outputs[ALL_COLD]

    def test_rare_paths_are_exercised(self, monkeypatch, programs):
        # The comparisons above cover the shared helpers only if the
        # runs take them: guards, elided entries, cheap exits and loop
        # transfers all happen somewhere in the suite.
        monkeypatch.setattr(interpreter, "HOT_ENTRY_THRESHOLD", ALL_HOT)
        totals = dict.fromkeys(("guard_tests", "elided_entries",
                                "deopt_entries", "deopt_exits",
                                "osr_transfers"), 0)
        for program in programs.values():
            for costs in SPECULATING.values():
                stats = observed_run(program, "cins", 1, costs,
                                     0.6)["stats"]
                for key in totals:
                    totals[key] += stats[key]
        assert all(totals.values()), totals


class TestReplaysAgreeAcrossTiers:
    """The soundness replays drive the machine's remaining hooks: the
    dispatch observer, the local probe, OSR entry and deopt exits."""

    def test_osr_replay(self, monkeypatch, programs):
        outputs = per_threshold(monkeypatch, lambda: check_osr_soundness(
            programs["mtrt"], phase=0.2))
        assert outputs[ALL_HOT] == outputs[STOCK] == outputs[ALL_COLD]
        assert outputs[ALL_HOT].reads_checked > 0

    def test_elision_replay(self, monkeypatch, programs):
        outputs = per_threshold(monkeypatch, lambda: check_elision_soundness(
            programs["jess"], phase=0.2))
        assert outputs[ALL_HOT] == outputs[STOCK] == outputs[ALL_COLD]

    def test_context_edges(self, monkeypatch, programs):
        outputs = per_threshold(monkeypatch, lambda: observe_context_edges(
            programs["db"], k=2, phase=0.2))
        assert outputs[ALL_HOT] == outputs[STOCK] == outputs[ALL_COLD]


def machine_trace(body, observers: bool):
    """Run a generated program on a bare machine; return everything it
    computed and, with ``observers``, every hook event in order."""
    program = build_program(body)
    costs = CostModel()
    machine = Machine(program, ClassHierarchy(program), CodeCache(costs),
                      costs, CostAccounting())
    events = []
    if observers:
        machine.local_probe = lambda locals_, index, is_read: events.append(
            ("local", index, is_read, locals_[index]))
        loops = [stmt for stmt in program.method("Main.main").body
                 if stmt.kind == S_LOOP]
        machine.progress_loops = {id(stmt): f"loop{i}"
                                  for i, stmt in enumerate(loops)}
        machine.progress_observer = lambda point: events.append(
            ("progress", point))
    value = machine.run()
    return (value, machine.clock, dict(machine.accounting.cycles),
            stats_of(machine), machine.backedge_counts, events)


class TestGeneratedProgramsAgreeAcrossTiers:
    @settings(max_examples=60, deadline=None)
    @given(bodies)
    def test_without_observers(self, body):
        self._check(body, observers=False)

    @settings(max_examples=60, deadline=None)
    @given(bodies)
    def test_with_observers(self, body):
        self._check(body, observers=True)

    @staticmethod
    def _check(body, observers):
        outputs = []
        saved = interpreter.HOT_ENTRY_THRESHOLD
        try:
            for threshold in THRESHOLDS:
                interpreter.HOT_ENTRY_THRESHOLD = threshold
                outputs.append(machine_trace(body, observers))
        finally:
            interpreter.HOT_ENTRY_THRESHOLD = saved
        assert outputs[0] == outputs[1] == outputs[2]


def recursion_program(depth: int):
    """``main`` calls ``down(depth)``; ``down(n)`` recurses to 0 and
    returns n."""
    b = ProgramBuilder("recursion")
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
        b.call("Deep.down", [Const(depth)], dst=0),
        Return(Local(0)),
    ], locals_=1)
    b.entry("Deep.main")
    return b.build()


class TestRecursionBudget:
    def test_two_thousand_frames_deep(self):
        limit = sys.getrecursionlimit()
        runtime = AdaptiveRuntime(recursion_program(2000),
                                  make_policy("fixed", 2))
        result = runtime.run()
        assert result.return_value == 2000
        assert runtime.machine.stats.calls == 2002
        assert runtime.machine.stack == []
        assert sys.getrecursionlimit() == limit  # restored on exit

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_runaway_recursion_raises_execution_error(self, monkeypatch,
                                                      threshold):
        monkeypatch.setattr(interpreter, "HOT_ENTRY_THRESHOLD", threshold)
        b = ProgramBuilder("runaway")
        b.cls("Main")
        b.static_method("Main", "loop",
                        [StaticCall(0, "Main.loop"), Return(Const(0))])
        b.static_method("Main", "main",
                        [StaticCall(1, "Main.loop"), Return(Const(0))])
        b.entry("Main.main")
        program = b.build()
        machine = Machine(program, ClassHierarchy(program),
                          CodeCache(DEFAULT_COSTS), DEFAULT_COSTS,
                          CostAccounting())
        with pytest.raises(ExecutionError, match="stack overflow"):
            machine.run()
        assert machine.stats.calls == MAX_STACK_DEPTH
