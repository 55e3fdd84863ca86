"""Which entry points each layer's spans wrap, and the per-layer metrics.

Times are self times in seconds (a span's duration minus its wrapped
children), except ``aos.tick_s``, which is the whole of the tick
handler, and ``workloads.build_s``, which is the whole of
``build_benchmark``.  Counts are summed over every adaptive run the
traced round made, the runs inside ``analyze_program`` included.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.analysis import callgraph, dataflow, deopt, kcfa, liveness
from repro.analysis import soundness, verifier
from repro.aos.controller import CompilationThread, Controller
from repro.aos.listeners import MethodListener, TraceListener
from repro.aos.organizers import (AIOrganizer, DCGOrganizer, DecayOrganizer,
                                  HotMethodsOrganizer, MissingEdgeOrganizer)
from repro.compiler.code_cache import CodeCache
from repro.compiler.opt_compiler import OptCompiler
from repro.compiler.oracle import InlineOracle
from repro.experiments.cell_cache import CellCache
from repro.experiments.config import SweepConfig
from repro.jvm.interpreter import Machine
from repro.profiles.dcg import DynamicCallGraph
from repro.workloads.spec import build_benchmark

#: ``(name, unit, better)`` of every per-layer metric, in report order.
#: A count is "better" in the direction that means less simulated work.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("jvm.interp_self_s", "s", "lower"),
    ("jvm.sim_mcycles_per_interp_s", "Mcycles/s", "higher"),
    ("jvm.calls", "count", "lower"),
    ("jvm.inline_entries", "count", "higher"),
    ("jvm.dispatches", "count", "lower"),
    ("jvm.guard_tests", "count", "lower"),
    ("jvm.guard_misses", "count", "lower"),
    ("jvm.osr_transfers", "count", "lower"),
    ("aos.tick_s", "s", "lower"),
    ("aos.listeners_s", "s", "lower"),
    ("aos.organizers_s", "s", "lower"),
    ("aos.controller_s", "s", "lower"),
    ("aos.compile_thread_s", "s", "lower"),
    ("aos.us_per_sample", "us", "lower"),
    ("aos.samples", "count", "lower"),
    ("aos.rules", "count", "lower"),
    ("aos.invalidations", "count", "lower"),
    ("compiler.opt_compile_s", "s", "lower"),
    ("compiler.oracle_s", "s", "lower"),
    ("compiler.baseline_compile_s", "s", "lower"),
    ("compiler.us_per_inlined_bc", "us", "lower"),
    ("compiler.opt_compilations", "count", "lower"),
    ("compiler.inlined_bytecodes", "count", "lower"),
    ("profiles.dcg_s", "s", "lower"),
    ("profiles.dcg_traces", "count", "lower"),
    ("analysis.verify_s", "s", "lower"),
    ("analysis.callgraph_s", "s", "lower"),
    ("analysis.kcfa_s", "s", "lower"),
    ("analysis.replay_s", "s", "lower"),
    ("analysis.speculation_s", "s", "lower"),
    ("analysis.deopt_s", "s", "lower"),
    ("analysis.elided_entries", "count", "higher"),
    ("analysis.deopt_exits", "count", "lower"),
    ("telemetry.spans", "count", "lower"),
    ("provenance.records", "count", "lower"),
    ("experiments.fingerprint_s", "s", "lower"),
    ("experiments.cache_store_s", "s", "lower"),
    ("experiments.cache_load_s", "s", "lower"),
    ("experiments.cells", "count", "higher"),
    ("workloads.build_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def install_build(tracer) -> None:
    """Wrap only ``build_benchmark`` (set-up builds the programs)."""
    tracer.patch_function(build_benchmark, "workloads.build")


def install(tracer) -> None:
    """Wrap the public entry points of every layer."""
    install_build(tracer)
    _patch_machine_run(tracer)
    tracer.patch_method(CodeCache, "compile_baseline",
                        "compiler.baseline_compile")
    tracer.patch_method(OptCompiler, "compile", "compiler.opt_compile")
    tracer.patch_method(InlineOracle, "decide", "compiler.oracle")
    tracer.patch_public_methods(DynamicCallGraph, "profiles.dcg")
    for cls in (MethodListener, TraceListener):
        tracer.patch_method(cls, "sample", "aos.listeners")
    for cls in (DCGOrganizer, AIOrganizer, HotMethodsOrganizer,
                DecayOrganizer, MissingEdgeOrganizer):
        tracer.patch_method(cls, "run", "aos.organizers")
    tracer.patch_public_methods(Controller, "aos.controller")
    tracer.patch_method(CompilationThread, "run", "aos.compile_thread")
    tracer.patch_method(SweepConfig, "cell_fingerprint",
                        "experiments.fingerprint")
    tracer.patch_method(CellCache, "store", "experiments.cache_store")
    tracer.patch_method(CellCache, "load", "experiments.cache_load")
    tracer.patch_function(verifier.verify_program, "analysis.verify")
    tracer.patch_function(callgraph.build_call_graph, "analysis.callgraph")
    tracer.patch_function(kcfa.build_kcfa_graph, "analysis.kcfa")
    for fn in (soundness.observe_dispatch_edges, soundness.check_containment,
               soundness.observe_context_edges,
               soundness.check_context_containment,
               soundness.check_lattice_soundness,
               soundness.check_elision_soundness,
               soundness.check_osr_soundness):
        tracer.patch_function(fn, "analysis.replay")
    tracer.patch_function(dataflow.static_speculation_summary,
                          "analysis.speculation")
    tracer.patch_public_methods(dataflow.SpeculationAnalysis,
                                "analysis.speculation")
    tracer.patch_function(liveness.method_liveness, "analysis.deopt")
    tracer.patch_public_methods(deopt.DeoptPlanner, "analysis.deopt")


def _patch_machine_run(tracer) -> None:
    """Wrap ``Machine.run``; while it runs, wrap the machine's tick and
    class-load handlers too, so the interpreter's self time leaves
    them out."""
    original = Machine.__dict__["run"]

    def run(machine, *args, **kwargs):
        tick, class_load = machine.tick_handler, machine.class_load_handler
        if tick is not None:
            machine.tick_handler = tracer.wrap("aos.tick", tick)
        if class_load is not None:
            machine.class_load_handler = tracer.wrap("aos.class_load",
                                                     class_load)
        try:
            return original(machine, *args, **kwargs)
        finally:
            machine.tick_handler, machine.class_load_handler = \
                tick, class_load

    tracer.replace(Machine, "run", tracer.wrap("jvm.run", run))


def per_layer_metrics(times: Mapping[str, Mapping[str, float]],
                      runs: Sequence, counts: Mapping[str, int],
                      traced_wall_s: float,
                      untraced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced round.

    ``times`` is :meth:`Tracer.times` over the round (plus set-up, for
    the build spans), ``runs`` the round's logged adaptive runs and
    ``counts`` the workload's own counts (telemetry spans, provenance
    records, sweep cells).
    """
    def self_s(name: str) -> float:
        return times.get(name, {}).get("self", 0.0)

    def total_s(name: str) -> float:
        return times.get(name, {}).get("total", 0.0)

    def run_sum(attr: str) -> int:
        return sum(getattr(run.result, attr) for run in runs)

    def stat_sum(attr: str) -> int:
        return sum(getattr(run.stats, attr) for run in runs)

    interp_s = self_s("jvm.run")
    sim_mcycles = run_sum("total_cycles") / 1e6
    samples = run_sum("samples_taken")
    inlined = run_sum("opt_inlined_bytecodes")
    compile_s = self_s("compiler.opt_compile") + self_s("compiler.oracle")
    values = {
        "jvm.interp_self_s": interp_s,
        "jvm.sim_mcycles_per_interp_s":
            sim_mcycles / interp_s if interp_s else 0.0,
        "jvm.calls": stat_sum("calls"),
        "jvm.inline_entries": stat_sum("inline_entries"),
        "jvm.dispatches": stat_sum("dispatches"),
        "jvm.guard_tests": stat_sum("guard_tests"),
        "jvm.guard_misses": stat_sum("guard_misses"),
        "jvm.osr_transfers": stat_sum("osr_transfers"),
        "aos.tick_s": total_s("aos.tick"),
        "aos.listeners_s": self_s("aos.listeners"),
        "aos.organizers_s": self_s("aos.organizers"),
        "aos.controller_s": self_s("aos.controller"),
        "aos.compile_thread_s": self_s("aos.compile_thread"),
        "aos.us_per_sample":
            1e6 * self_s("aos.listeners") / samples if samples else 0.0,
        "aos.samples": samples,
        "aos.rules": run_sum("rule_count"),
        "aos.invalidations": run_sum("invalidations"),
        "compiler.opt_compile_s": self_s("compiler.opt_compile"),
        "compiler.oracle_s": self_s("compiler.oracle"),
        "compiler.baseline_compile_s": self_s("compiler.baseline_compile"),
        "compiler.us_per_inlined_bc":
            1e6 * compile_s / inlined if inlined else 0.0,
        "compiler.opt_compilations": run_sum("opt_compilations"),
        "compiler.inlined_bytecodes": inlined,
        "profiles.dcg_s": self_s("profiles.dcg"),
        "profiles.dcg_traces": run_sum("dcg_traces"),
        "analysis.verify_s": self_s("analysis.verify"),
        "analysis.callgraph_s": self_s("analysis.callgraph"),
        "analysis.kcfa_s": self_s("analysis.kcfa"),
        "analysis.replay_s": self_s("analysis.replay"),
        "analysis.speculation_s": self_s("analysis.speculation"),
        "analysis.deopt_s": self_s("analysis.deopt"),
        "analysis.elided_entries": run_sum("elided_entries"),
        "analysis.deopt_exits": run_sum("deopt_exits"),
        "telemetry.spans": counts.get("telemetry.spans", 0),
        "provenance.records": counts.get("provenance.records", 0),
        "experiments.fingerprint_s": self_s("experiments.fingerprint"),
        "experiments.cache_store_s": self_s("experiments.cache_store"),
        "experiments.cache_load_s": self_s("experiments.cache_load"),
        "experiments.cells": counts.get("experiments.cells", 0),
        "workloads.build_s": total_s("workloads.build"),
        "trace.overhead_pct": 100.0 * (traced_wall_s / untraced_wall_s - 1.0),
    }
    return values
