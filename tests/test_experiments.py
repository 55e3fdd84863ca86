"""Tests for the experiment harness: runner, sweep serialization, figures.

The sweeps here run at tiny scale -- the point is plumbing correctness
(keys, baselines, serialization, rendering), not paper-shaped numbers.
"""

import json
import os

import pytest

from repro.experiments import runner
from repro.experiments.cell_cache import CellCache, cell_cache_root
from repro.experiments.config import (DEFAULT_PHASES, DEPTHS,
                                      POLICY_FAMILIES, SweepConfig)
from repro.experiments.figures import (FIGURE6_COMPONENTS, figure2, figure4,
                                       figure5, figure6, headline, table1,
                                       termination_stats)
from repro.aos.listeners import TerminationStatsProbe
from repro.experiments.runner import (CellFailure, SweepResults,
                                      _cell_worker, load_or_run_sweep,
                                      run_cell, run_single, run_sweep)
from repro.jvm.costs import DEFAULT_COSTS
from repro.jvm.errors import ExecutionError
from repro.workloads.spec import BENCHMARK_ORDER

TINY = SweepConfig(benchmarks=("jess", "db"), families=("fixed", "hybrid1"),
                   depths=(2,), phases=(0.0,), scale=0.05, jobs=1)


@pytest.fixture(scope="module")
def tiny_sweep():
    return run_sweep(TINY)


class TestConfig:
    def test_configurations_include_baseline_first_per_benchmark(self):
        cells = TINY.configurations()
        assert cells[0] == ("jess", "cins", 1)
        assert ("jess", "fixed", 2) in cells
        assert ("db", "hybrid1", 2) in cells

    def test_default_families_match_paper(self):
        assert POLICY_FAMILIES == ("fixed", "paramLess", "class", "large",
                                   "hybrid1", "hybrid2")
        assert DEPTHS == (2, 3, 4, 5)
        assert len(DEFAULT_PHASES) >= 2


class TestRunner:
    def test_run_single_returns_result(self):
        result = run_single("jess", "cins", 1, scale=0.05)
        assert result.total_cycles > 0
        assert result.program_name == "jess"

    def test_run_cell_takes_best_of_phases(self):
        best = run_cell("jess", "cins", 1, phases=(0.0, 0.5), scale=0.05)
        single0 = run_single("jess", "cins", 1, phase=0.0, scale=0.05)
        single5 = run_single("jess", "cins", 1, phase=0.5, scale=0.05)
        assert best.total_cycles == min(single0.total_cycles,
                                        single5.total_cycles)

    def test_sweep_covers_all_cells(self, tiny_sweep):
        assert set(tiny_sweep.cells) == set(TINY.configurations())

    def test_relative_metrics(self, tiny_sweep):
        # Baseline relative to itself is exactly zero.
        assert tiny_sweep.speedup_percent("jess", "cins", 1) == 0.0
        assert tiny_sweep.code_size_percent("jess", "cins", 1) == 0.0
        assert tiny_sweep.compile_time_percent("jess", "cins", 1) == 0.0
        # Non-baseline cells produce finite numbers.
        value = tiny_sweep.speedup_percent("db", "fixed", 2)
        assert -100.0 < value < 100.0


class TestBuildOncePerPass:
    def test_in_process_sweep_builds_each_benchmark_once(self,
                                                         monkeypatch):
        """The 104-cell grid is benchmark-major: an in-process pass
        builds each of the eight programs once, and every cell of a
        benchmark runs on that one program."""
        built = []
        real_build = runner.build_benchmark

        def counting_build(name, scale=1.0, seed_offset=0):
            built.append(name)
            return real_build(name, scale=scale, seed_offset=seed_offset)

        seen = {}

        def fake_cell(benchmark, family, depth, phases, scale, probe=None,
                      collect_telemetry=False, collect_provenance=False,
                      generated=None):
            assert generated.program.name == benchmark
            seen.setdefault(benchmark, set()).add(id(generated))
            return "result"

        monkeypatch.setattr(runner, "build_benchmark", counting_build)
        monkeypatch.setattr(runner, "run_cell", fake_cell)
        config = SweepConfig(depths=(2, 4), phases=(0.0,), scale=0.01,
                             jobs=1)
        results = run_sweep(config)
        assert len(results.cells) == 104
        assert built == list(BENCHMARK_ORDER)
        assert all(len(ids) == 1 for ids in seen.values())
        assert not runner._last_built  # the pass keeps no program alive

    def test_shared_program_cells_equal_fresh_cells(self, tiny_sweep):
        # Cells after the first of each benchmark ran on the program the
        # first one built; each must equal a cell built from scratch.
        for key in (("jess", "hybrid1", 2), ("db", "fixed", 2)):
            fresh = run_cell(*key, phases=TINY.phases, scale=TINY.scale)
            assert tiny_sweep.cells[key] == fresh


class TestSerialization:
    def test_round_trip(self, tiny_sweep):
        text = tiny_sweep.to_json()
        loaded = SweepResults.from_json(text)
        assert loaded.config == tiny_sweep.config
        assert set(loaded.cells) == set(tiny_sweep.cells)
        for key in tiny_sweep.cells:
            assert loaded.cells[key].total_cycles == \
                tiny_sweep.cells[key].total_cycles
            assert loaded.cells[key].depth_histogram == \
                tiny_sweep.cells[key].depth_histogram

    def test_load_or_run_uses_cache(self, tiny_sweep, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(tiny_sweep.to_json())
        loaded = load_or_run_sweep(str(path), TINY)
        assert set(loaded.cells) == set(tiny_sweep.cells)

    def test_load_or_run_regenerates_on_mismatch(self, tiny_sweep, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(tiny_sweep.to_json())
        other = SweepConfig(benchmarks=("db",), families=("fixed",),
                            depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        regenerated = load_or_run_sweep(str(path), other)
        assert regenerated.config == other

    def test_corrupt_cache_regenerated_with_warning(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("{not json!")
        small = SweepConfig(benchmarks=("db",), families=("fixed",),
                            depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        with pytest.warns(RuntimeWarning, match="regenerating"):
            result = load_or_run_sweep(str(path), small)
        assert result.config == small

    def test_truncated_cache_regenerated_with_warning(self, tiny_sweep,
                                                      tmp_path):
        # A partially written cache (e.g. a killed sweep) is valid-looking
        # JSON syntax up to the cut, but unreadable; the warning must name
        # the path and the failure so the silent re-run is explicable.
        path = tmp_path / "sweep.json"
        path.write_text(tiny_sweep.to_json()[:200])
        small = SweepConfig(benchmarks=("db",), families=("fixed",),
                            depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        with pytest.warns(RuntimeWarning) as captured:
            result = load_or_run_sweep(str(path), small)
        assert result.config == small
        message = str(captured[0].message)
        assert str(path) in message
        assert "unreadable" in message
        # The fresh sweep replaced the truncated file on disk.
        assert SweepResults.from_json(path.read_text()).config == small


SMALL = SweepConfig(benchmarks=("jess",), families=("fixed",),
                    depths=(2,), phases=(0.0,), scale=0.05, jobs=1)


def _counting_worker(executed):
    """A _cell_worker wrapper recording which cells actually run."""
    real = _cell_worker

    def worker(args):
        executed.append(args[:3])
        return real(args)
    return worker


class TestResumableSweep:
    def test_resume_reruns_exactly_the_missing_cells(self, tmp_path,
                                                     monkeypatch):
        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        cache = CellCache(str(tmp_path / "cells"))
        run_sweep(SMALL, cache=cache)
        assert set(executed) == set(SMALL.configurations())

        # A wider sweep sharing phases/scale reuses the overlapping
        # cells and dispatches only the new ones.
        executed.clear()
        full = SweepConfig(benchmarks=("jess", "db"), families=("fixed",),
                           depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        results = run_sweep(full, cache=cache)
        assert set(executed) == \
            set(full.configurations()) - set(SMALL.configurations())
        assert set(results.cells) == set(full.configurations())

        # A fully cached rerun dispatches nothing at all.
        executed.clear()
        again = run_sweep(full, cache=cache)
        assert executed == []
        assert again.cells == results.cells

    def test_interrupted_sweep_resumes_where_it_died(self, tmp_path,
                                                     monkeypatch):
        path = str(tmp_path / "sweep.json")
        config = SweepConfig(benchmarks=("jess", "db"), families=("fixed",),
                             depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        real = _cell_worker
        completed_before_kill = 2
        state = {"left": completed_before_kill}

        def dying(args):
            if state["left"] == 0:
                raise KeyboardInterrupt
            state["left"] -= 1
            return real(args)

        monkeypatch.setattr(runner, "_cell_worker", dying)
        with pytest.raises(KeyboardInterrupt):
            load_or_run_sweep(path, config)
        assert not os.path.exists(path)  # monolithic file never written

        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        results = load_or_run_sweep(path, config)
        assert len(executed) == \
            len(config.configurations()) - completed_before_kill
        assert set(results.cells) == set(config.configurations())
        assert os.path.exists(path)

    def test_cached_and_fresh_cells_bit_identical(self, tmp_path):
        cache = CellCache(str(tmp_path / "cells"))
        fresh = run_sweep(SMALL, cache=cache)
        cached = run_sweep(SMALL, cache=cache)
        assert cached.cells == fresh.cells
        assert cached.to_json() == fresh.to_json()

    def test_corrupt_cell_entry_costs_exactly_one_rerun(self, tmp_path,
                                                        monkeypatch):
        cache = CellCache(str(tmp_path / "cells"))
        run_sweep(SMALL, cache=cache)
        victim = ("jess", "fixed", 2)
        entry = cache.path_for(SMALL.cell_fingerprint(*victim))
        with open(entry, "w") as handle:
            handle.write("{half an entr")

        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        with pytest.warns(RuntimeWarning, match="rerunning that cell"):
            results = run_sweep(SMALL, cache=cache)
        assert executed == [victim]
        assert set(results.cells) == set(SMALL.configurations())

    def test_worker_error_becomes_structured_failure(self, tmp_path,
                                                     monkeypatch):
        config = SweepConfig(benchmarks=("jess", "db"), families=("fixed",),
                             depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        bad = ("db", "fixed", 2)
        real = _cell_worker

        def flaky(args):
            if args[:3] == bad:
                raise ExecutionError("simulated worker crash")
            return real(args)

        monkeypatch.setattr(runner, "_cell_worker", flaky)
        cache = CellCache(str(tmp_path / "cells"))
        results = run_sweep(config, cache=cache)

        # The failing cell is recorded, not fatal; every other cell
        # completed and was persisted.
        assert bad not in results.cells
        failure = results.failures[bad]
        assert failure.error_type == "ExecutionError"
        assert "simulated worker crash" in failure.message
        assert failure.attempts == 2  # first try plus one retry
        assert set(results.cells) == set(config.configurations()) - {bad}

        # The next sweep retries only the failed cell (failures are
        # never cached) and succeeds.
        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        retried = run_sweep(config, cache=cache)
        assert executed == [bad]
        assert not retried.failures
        assert set(retried.cells) == set(config.configurations())

    def test_transient_error_recovered_by_retry(self, monkeypatch):
        real = _cell_worker
        state = {"failed_once": False}

        def flaky_once(args):
            if args[:3] == ("jess", "fixed", 2) and not state["failed_once"]:
                state["failed_once"] = True
                raise RuntimeError("transient")
            return real(args)

        monkeypatch.setattr(runner, "_cell_worker", flaky_once)
        results = run_sweep(SMALL)
        assert not results.failures
        assert set(results.cells) == set(SMALL.configurations())

    def test_pool_unavailable_degrades_to_in_process(self, monkeypatch):
        import concurrent.futures

        def unavailable(*args, **kwargs):
            raise OSError("no sem_open on this platform")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            unavailable)
        config = SweepConfig(benchmarks=("jess",), families=("fixed",),
                             depths=(2,), phases=(0.0,), scale=0.05, jobs=2)
        with pytest.warns(RuntimeWarning, match="in-process"):
            results = run_sweep(config)
        assert set(results.cells) == set(config.configurations())
        assert not results.failures

    def test_legacy_monolithic_cache_migrates_to_cells(self, tiny_sweep,
                                                       tmp_path,
                                                       monkeypatch):
        path = tmp_path / "sweep.json"
        path.write_text(tiny_sweep.to_json())
        executed = []
        monkeypatch.setattr(runner, "_cell_worker",
                            _counting_worker(executed))
        # A different (subset) config: the monolithic fast path cannot
        # serve it, but every requested cell exists in the legacy file.
        sub = SweepConfig(benchmarks=("db",), families=("fixed",),
                          depths=(2,), phases=(0.0,), scale=0.05, jobs=1)
        results = load_or_run_sweep(str(path), sub)
        assert executed == []
        assert set(results.cells) == set(sub.configurations())
        for key in results.cells:
            assert results.cells[key] == tiny_sweep.cells[key]
        assert os.path.isdir(cell_cache_root(str(path)))


class TestFailureSerialization:
    def test_round_trip_with_nondefault_config_and_failures(self):
        config = SweepConfig(benchmarks=("jess",), families=("class",),
                             depths=(3,), phases=(0.1, 0.9), scale=0.25,
                             jobs=3, cell_timeout=12.5)
        result = run_single("jess", "cins", 1, scale=0.05)
        failure = CellFailure(benchmark="jess", family="class", depth=3,
                              error_type="ExecutionError",
                              message="stack overflow", attempts=2)
        results = SweepResults(config=config,
                               cells={("jess", "cins", 1): result},
                               failures={failure.key: failure})
        loaded = SweepResults.from_json(results.to_json())
        assert loaded.config == config
        assert loaded.cells == results.cells
        assert loaded.failures == results.failures

    def test_from_json_accepts_legacy_payload(self, tiny_sweep):
        # Payloads written before per-cell caching carry neither the
        # failures list nor the cell_timeout field.
        payload = json.loads(tiny_sweep.to_json())
        payload["config"].pop("cell_timeout")
        assert "failures" not in payload
        loaded = SweepResults.from_json(json.dumps(payload))
        assert loaded.config == tiny_sweep.config
        assert loaded.failures == {}


class TestProbeThreading:
    def test_run_cell_threads_probe(self):
        probe = TerminationStatsProbe(DEFAULT_COSTS)
        run_cell("jess", "fixed", 2, phases=(0.0,), scale=0.05, probe=probe)
        assert probe.samples > 0
        assert sum(probe.first_parameterless.values()) == probe.samples

    def test_probe_describes_best_run_only(self):
        # Regression: run_cell used to thread one shared probe through
        # every phase, so its statistics aggregated all N attempts.  The
        # probe must describe the *reported* (best) run: its sample
        # count matches that run's traces_recorded (probe and trace
        # listener sample at the same ticks under the same gate).
        probe = TerminationStatsProbe(DEFAULT_COSTS)
        best = run_cell("jess", "fixed", 2, phases=(0.0, 0.5), scale=0.05,
                        probe=probe)
        assert probe.samples == best.traces_recorded

    def test_probe_aggregates_across_cells(self):
        # A probe shared across cells still accumulates -- one best run
        # per cell.
        probe = TerminationStatsProbe(DEFAULT_COSTS)
        first = run_cell("jess", "fixed", 2, phases=(0.0, 0.5), scale=0.05,
                         probe=probe)
        second = run_cell("db", "fixed", 2, phases=(0.0, 0.5), scale=0.05,
                          probe=probe)
        assert probe.samples == first.traces_recorded + \
            second.traces_recorded
        assert sum(probe.first_parameterless.values()) == probe.samples

    def test_cell_worker_threads_probe(self):
        probe = TerminationStatsProbe(DEFAULT_COSTS)
        key, result, snapshot, log = _cell_worker(
            ("jess", "fixed", 2, (0.0,), 0.05, probe, False, False))
        assert key == ("jess", "fixed", 2)
        assert result.total_cycles > 0
        assert snapshot is None
        assert log is None
        assert probe.samples > 0


class TestFigures:
    def test_figure4_structure(self, tiny_sweep):
        panels, rendered = figure4(tiny_sweep)
        assert set(panels) == {"fixed", "hybrid1"}
        assert "harMean" in panels["fixed"]
        assert "jess" in rendered and "db" in rendered

    def test_figure5_structure(self, tiny_sweep):
        panels, rendered = figure5(tiny_sweep)
        assert set(panels) == {"fixed", "hybrid1"}
        assert "code space" in rendered

    def test_figure6_structure(self, tiny_sweep):
        series, rendered = figure6(tiny_sweep)
        assert "cins" in series
        assert "fixed-2" in series
        for fractions in series.values():
            for component in FIGURE6_COMPONENTS:
                assert 0.0 <= fractions[component] < 0.5
        assert "AOS component" in rendered

    def test_figure2_shows_context_split(self):
        data, rendered = figure2(iterations=3000)
        edge_split = data["edge"]["global"]
        assert set(edge_split) == {"MyKey.hashCode", "Object.hashCode"}
        per_context = data["trace"]["per_context"]
        assert len(per_context) == 2
        for bucket in per_context.values():
            assert max(bucket.values()) > 0.99  # 100% per context
        assert "Figure 2" in rendered

    def test_table1_matches_spec(self):
        rows, rendered = table1(scale=0.05)
        assert [r["benchmark"] for r in rows] == list(BENCHMARK_ORDER)
        from repro.workloads.spec import TABLE1
        for row in rows:
            classes, methods, _bc = TABLE1[row["benchmark"]]
            assert row["classes"] == classes
            assert row["methods"] == methods
        assert "Table 1" in rendered

    def test_termination_stats(self):
        stats, rendered = termination_stats(scale=0.05)
        assert set(stats) == set(BENCHMARK_ORDER)
        for entry in stats.values():
            assert 0.0 <= entry["immediately_parameterless"] <= 1.0
            assert entry["parameterless_within_5"] >= \
                entry["immediately_parameterless"]
        assert "termination" in rendered

    def test_headline(self, tiny_sweep):
        data, rendered = headline(tiny_sweep)
        assert data["min_speedup_percent"] <= data["max_speedup_percent"]
        assert "Headline" in rendered
