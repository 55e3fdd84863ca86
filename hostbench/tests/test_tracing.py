"""Span nesting, self time, and that wrappers come off again."""

import json
import os

import repro.workloads.spec as spec
from repro.experiments import runner
from repro.jvm.interpreter import Machine

import layers
from tracing import Tracer


def test_self_time_leaves_out_children():
    tracer = Tracer()
    outer = tracer.wrap("outer", lambda: inner() + inner())
    inner = tracer.wrap("inner", lambda: 1)
    assert outer() == 2
    (name, start, end, parent), first, second = tracer.spans
    assert name == "outer" and parent == -1
    assert first[3] == second[3] == 0
    times = tracer.times()
    children = sum(s[2] - s[1] for s in (first, second))
    assert times["outer"]["self"] == (end - start) - children
    assert times["inner"]["count"] == 2


def test_install_and_uninstall_restore_everything(tmp_path):
    run, build = Machine.run, spec.build_benchmark
    tracer = Tracer()
    layers.install(tracer)
    assert Machine.run is not run
    assert spec.build_benchmark is not build
    assert runner.build_benchmark is spec.build_benchmark
    tracer.uninstall()
    assert Machine.run is run
    assert spec.build_benchmark is build and runner.build_benchmark is build
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    assert json.loads(path.read_text())["traceEvents"] == []


def test_every_per_layer_metric_is_computed():
    values = layers.per_layer_metrics({}, [], {}, 2.0, 1.0)
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}
    assert values["trace.overhead_pct"] == 100.0


def test_benchmark_json_lists_the_per_layer_metrics():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        listed = json.load(handle)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == \
        list(layers.PER_LAYER)
