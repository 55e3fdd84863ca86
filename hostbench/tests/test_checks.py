"""Each output check passes on a real run and fails on a corrupted one."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.aos.runtime import AdaptiveRuntime
from repro.jvm.interpreter import MachineStats
from repro.policies import make_policy
from repro.workloads.spec import build_benchmark

import checks
from reference import Evaluator


@pytest.fixture(scope="module")
def run():
    program = build_benchmark("db", 0.05).program
    runtime = AdaptiveRuntime(program, make_policy("fixed", 2))
    result = runtime.run()
    stats = SimpleNamespace(**{name: getattr(runtime.machine.stats, name)
                               for name in MachineStats.__slots__})
    return result, stats, Evaluator(program).run()


def corrupt_stats(stats, **changes):
    return SimpleNamespace(**{**vars(stats), **changes})


def test_a_real_run_passes_every_check(run):
    result, stats, expected = run
    assert result.guard_tests > 0 and result.dispatches > 0
    assert checks.reference_problems(result, stats, expected) == []
    assert checks.property_problems(result, stats) == []


@pytest.mark.parametrize("corruption", [
    lambda r, s: (dataclasses.replace(r, return_value=r.return_value + 1), s),
    lambda r, s: (r, corrupt_stats(s, work_cycles=s.work_cycles + 1)),
    lambda r, s: (dataclasses.replace(r, calls=r.calls - 1), s),
    lambda r, s: (dataclasses.replace(r, inline_entries=r.inline_entries + 1),
                  s),
    lambda r, s: (r, corrupt_stats(s, virtual_calls=s.virtual_calls + 1)),
], ids=["return", "work", "calls", "inline-entries", "virtual-calls"])
def test_reference_checks_catch_corruption(run, corruption):
    result, stats, expected = run
    assert checks.reference_problems(*corruption(result, stats), expected)


@pytest.mark.parametrize("corruption", [
    lambda r, s: (dataclasses.replace(r, total_cycles=r.total_cycles + 1), s),
    lambda r, s: (dataclasses.replace(r, component_cycles={
        **r.component_cycles, "app": r.component_cycles["app"] * 2}), s),
    lambda r, s: (dataclasses.replace(r, guard_misses=r.guard_tests + 1), s),
    lambda r, s: (r, corrupt_stats(s, virtual_calls=r.dispatches - 1)),
    lambda r, s: (dataclasses.replace(
        r, live_opt_code_bytes=r.opt_code_bytes + 1), s),
], ids=["total", "components", "guard-misses", "dispatches", "live-bytes"])
def test_property_checks_catch_corruption(run, corruption):
    result, stats, _ = run
    assert checks.property_problems(*corruption(result, stats))


def test_best_phase(run):
    result, _, _ = run
    worse = dataclasses.replace(result, total_cycles=result.total_cycles + 5)
    assert checks.best_phase_problems(result, [worse, result], 2) == []
    assert checks.best_phase_problems(worse, [worse, result], 2)
    assert checks.best_phase_problems(result, [result], 2)


def test_read_back(run):
    result, _, _ = run
    other = dataclasses.replace(result, opt_code_bytes=1)
    computed = {"a": result, "b": result, "c": result}
    found = checks.read_back_problems(computed, {"a": result, "b": other}, 0)
    assert found["a"] == [] and found["b"] and found["c"]
    rerun = checks.read_back_problems({"a": result}, {"a": result}, 1)
    assert rerun["a"]


def test_analysis_sections():
    ok = {"verifier": {"ok": True}, "soundness": {"ok": True},
          "speculation": {"ok": True}}
    assert checks.analysis_problems(ok) == []
    for section in ok:
        broken = {**ok, section: {"ok": False}}
        assert checks.analysis_problems(broken)
        missing = {k: v for k, v in ok.items() if k != section}
        assert checks.analysis_problems(missing)
