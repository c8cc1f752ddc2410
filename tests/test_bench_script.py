"""Tier-1-safe smoke test for the perf benchmark harness.

Runs ``scripts/bench.py --quick`` (seconds, not minutes) so the bench
suite itself cannot silently rot: it must import, execute every
workload, pass its own serial-vs-parallel identity checks, and write
well-formed JSON.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchQuickMode:
    @pytest.fixture(scope="class")
    def bench_output(self, tmp_path_factory):
        spec = importlib.util.spec_from_file_location("bench_run", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        out = tmp_path_factory.mktemp("bench") / "BENCH_test.json"
        code = module.main(["--quick", "--workers", "2", "--out", str(out)])
        return code, out

    def test_exit_code_zero(self, bench_output):
        code, _ = bench_output
        assert code == 0

    def test_json_written_with_meta(self, bench_output):
        _, out = bench_output
        data = json.loads(out.read_text())
        assert data["meta"]["quick"] is True
        assert data["meta"]["workers"] == 2
        assert data["meta"]["cpu_count"] >= 1
        assert data["meta"]["python"] == ".".join(map(str, sys.version_info[:3]))
        assert data["meta"]["host"]["cpu_count"] == data["meta"]["cpu_count"]
        assert data["meta"]["host"]["python"] == data["meta"]["python"]
        assert data["meta"]["host"]["cpu_model"]

    def test_all_quick_workloads_present(self, bench_output):
        _, out = bench_output
        workloads = json.loads(out.read_text())["workloads"]
        assert set(workloads) == {
            "sweep11",
            "setup7",
            "das_setup",
            "das_dissem15",
            "trace_heavy",
            "scenario",
            "telemetry",
        }

    def test_setup_workload_reports_cold_builds(self, bench_output):
        _, out = bench_output
        setup = json.loads(out.read_text())["workloads"]["setup7"]
        assert setup["grid"] == "7x7"
        assert setup["builds"] == 8  # 4 seeds × (protectionless + slp)
        assert setup["builds_per_second"] > 0

    def test_sweep_identity_checks_pass(self, bench_output):
        _, out = bench_output
        sweep = json.loads(out.read_text())["workloads"]["sweep11"]
        assert sweep["stats_identical"] is True
        assert sweep["results_identical"] is True
        assert sweep["serial_seconds"] > 0
        assert sweep["parallel_seconds"] > 0
        assert sweep["speedup"] > 0

    def test_das_dissem_identity_and_speedup_reported(self, bench_output):
        _, out = bench_output
        dissem = json.loads(out.read_text())["workloads"]["das_dissem15"]
        assert dissem["results_identical"] is True  # fast == legacy heap
        assert dissem["messages_per_second"] > 0
        assert dissem["kernel_speedup"] > 0

    def test_trace_heavy_outcome_identical(self, bench_output):
        _, out = bench_output
        trace = json.loads(out.read_text())["workloads"]["trace_heavy"]
        assert trace["outcome_identical"] is True
        assert trace["counting_only_seconds"] > 0

    def test_scenario_identity_checks_pass(self, bench_output):
        _, out = bench_output
        scenario = json.loads(out.read_text())["workloads"]["scenario"]
        assert scenario["scenario"] == "two-sources"
        assert scenario["results_identical"] is True
        assert scenario["runs_per_second_serial"] > 0

    def test_telemetry_workload_guards_the_noop_path(self, bench_output):
        _, out = bench_output
        telemetry = json.loads(out.read_text())["workloads"]["telemetry"]
        # The gated number is the telemetry-OFF leg's throughput, so
        # the regression gate protects the no-op path every normal
        # run takes; the on-leg delta is tracked alongside it.
        assert telemetry["runs_per_second_serial"] > 0
        assert telemetry["telemetry_overhead_fraction"] is not None
        assert telemetry["spans_recorded"] > 0
        assert telemetry["results_identical"] is True


class TestBenchHelpers:
    def test_workers_zero_means_cpu_count(self, bench, tmp_path, monkeypatch):
        seen = {}

        def fake_suite(workers, quick, telemetry_dir=None):
            seen["workers"] = workers
            return {"meta": {"workers": workers, "quick": quick}, "workloads": {}}

        monkeypatch.setattr(bench, "run_suite", fake_suite)
        out = tmp_path / "b.json"
        assert bench.main(["--quick", "--workers", "0", "--out", str(out)]) == 0
        assert seen["workers"] >= 1

    def test_identity_failure_fails_the_run(self, bench, tmp_path, monkeypatch):
        def bad_suite(workers, quick, telemetry_dir=None):
            return {
                "meta": {},
                "workloads": {"sweep11": {"stats_identical": False}},
            }

        monkeypatch.setattr(bench, "run_suite", bad_suite)
        out = tmp_path / "b.json"
        assert bench.main(["--quick", "--out", str(out)]) == 1


def _fake_suite(runs_per_second: float) -> dict:
    return {
        "meta": {"quick": True},
        "workloads": {
            "sweep11": {
                "runs_per_second_serial": runs_per_second,
                "results_identical": True,
            },
            "das_setup": {"messages_per_second": 1000.0},
        },
    }


class TestRegressionGate:
    def test_workload_throughput_picks_the_right_metric(self, bench):
        assert bench.workload_throughput({"runs_per_second_serial": 30.0}) == 30.0
        assert bench.workload_throughput({"messages_per_second": 9.0}) == 9.0
        assert bench.workload_throughput({"counting_only_seconds": 0.25}) == 4.0
        assert bench.workload_throughput({"other": 1}) is None

    def test_compare_flags_breaches_only(self, bench):
        lines, regressions = bench.compare_with_previous(
            _fake_suite(10.0), _fake_suite(20.0), threshold=0.15
        )
        assert regressions == ["sweep11"]  # -50% breaches, das_setup flat
        assert any("-50.0%" in line for line in lines)
        _, ok = bench.compare_with_previous(
            _fake_suite(19.0), _fake_suite(20.0), threshold=0.15
        )
        assert ok == []

    def test_regression_fails_the_run(self, bench, tmp_path, monkeypatch):
        baseline = tmp_path / "BENCH_prev.json"
        baseline.write_text(json.dumps(_fake_suite(20.0)))
        monkeypatch.setattr(
            bench, "run_suite", lambda workers, quick, telemetry_dir=None: _fake_suite(10.0)
        )
        out = tmp_path / "b.json"
        argv = ["--quick", "--out", str(out), "--baseline", str(baseline)]
        assert bench.main(argv) == 1
        assert bench.main(argv + ["--no-regression-check"]) == 0
        assert bench.main(argv + ["--regression-threshold", "0.6"]) == 0

    def test_improvement_passes(self, bench, tmp_path, monkeypatch):
        baseline = tmp_path / "BENCH_prev.json"
        baseline.write_text(json.dumps(_fake_suite(10.0)))
        monkeypatch.setattr(
            bench, "run_suite", lambda workers, quick, telemetry_dir=None: _fake_suite(20.0)
        )
        out = tmp_path / "b.json"
        assert bench.main(
            ["--quick", "--out", str(out), "--baseline", str(baseline)]
        ) == 0

    def test_find_previous_bench_matches_mode(self, bench, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        (tmp_path / "BENCH_1.json").write_text(
            json.dumps({"meta": {"quick": False}, "workloads": {}})
        )
        (tmp_path / "BENCH_2.json").write_text(
            json.dumps({"meta": {"quick": True}, "workloads": {}})
        )
        out = tmp_path / "BENCH_out.json"
        assert bench.find_previous_bench(True, exclude=out).name == "BENCH_2.json"
        assert bench.find_previous_bench(False, exclude=out).name == "BENCH_1.json"
        # A file is never its own baseline.
        assert bench.find_previous_bench(False, exclude=tmp_path / "BENCH_1.json") is None

    def test_find_previous_bench_skips_other_harness_records(
        self, bench, tmp_path, monkeypatch
    ):
        """A perfbench pairs record has no ``meta.quick`` and no
        ``workloads``; taken as the full-mode baseline, it would turn
        every comparison into ``n/a`` and switch the gate off."""
        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        older = tmp_path / "BENCH_1.json"
        older.write_text(json.dumps(_fake_suite(20.0) | {"meta": {}}))
        newer = tmp_path / "BENCH_2.json"
        newer.write_text(
            json.dumps({"meta": {"harness": "perfbench"}, "pairs": {}})
        )
        os.utime(older, (1, 1))
        out = tmp_path / "BENCH_out.json"
        assert bench.find_previous_bench(False, exclude=out) == older
        assert bench.find_previous_bench(True, exclude=out) is None

    def test_default_output_never_clobbers(self, bench, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
        first = bench.default_output_path()
        first.write_text("{}")
        second = bench.default_output_path()
        assert second != first
        assert second.name.endswith("b.json")


class TestHostFingerprint:
    def test_fingerprint_shape(self, bench):
        fingerprint = bench.host_fingerprint()
        assert set(fingerprint) == {"cpu_model", "cpu_count", "python"}
        assert fingerprint["cpu_count"] >= 1
        assert fingerprint["python"] == bench.platform.python_version()
        # Deterministic on one host: that is what makes it comparable.
        assert fingerprint == bench.host_fingerprint()

    def test_cross_host_regression_warns_but_passes(
        self, bench, tmp_path, monkeypatch, capsys
    ):
        """A regression against a baseline from *different* hardware is
        a warning, not a failure — the delta measures the machines."""
        baseline_suite = _fake_suite(20.0)
        baseline_suite["meta"]["host"] = {
            "cpu_model": "Imaginary CPU @ 9.99GHz",
            "cpu_count": 128,
            "python": "3.0.0",
        }
        baseline = tmp_path / "BENCH_prev.json"
        baseline.write_text(json.dumps(baseline_suite))
        current = _fake_suite(10.0)
        current["meta"]["host"] = bench.host_fingerprint()
        monkeypatch.setattr(
            bench, "run_suite", lambda workers, quick, telemetry_dir=None: current
        )
        out = tmp_path / "b.json"
        assert (
            bench.main(["--quick", "--out", str(out), "--baseline", str(baseline)])
            == 0
        )
        assert "fingerprint differs" in capsys.readouterr().err

    def test_same_host_regression_still_fails(
        self, bench, tmp_path, monkeypatch
    ):
        baseline_suite = _fake_suite(20.0)
        baseline_suite["meta"]["host"] = bench.host_fingerprint()
        baseline = tmp_path / "BENCH_prev.json"
        baseline.write_text(json.dumps(baseline_suite))
        current = _fake_suite(10.0)
        current["meta"]["host"] = bench.host_fingerprint()
        monkeypatch.setattr(
            bench, "run_suite", lambda workers, quick, telemetry_dir=None: current
        )
        out = tmp_path / "b.json"
        assert (
            bench.main(["--quick", "--out", str(out), "--baseline", str(baseline)])
            == 1
        )


class TestArtifactsPreservation:
    """The benchmark suite's session-start reset must not clobber the
    ``--profile`` cProfile tables other tooling appended to the shared
    ``benchmark_artifacts.txt``."""

    @pytest.fixture(scope="class")
    def bench_conftest(self):
        path = SCRIPT.parent.parent / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _section(title: str, body: str) -> str:
        bar = "=" * 64
        return f"\n{bar}\n{title}\n{bar}\n{body}\n"

    def test_profile_sections_survive_reset(self, bench_conftest):
        text = (
            self._section("Ablation: attacker strength", "table rows")
            + self._section(
                "cProfile hotspots (2026-07-26, full suite, workers=4)",
                "---- workload: sweep15 ----\nncalls tottime",
            )
            + self._section("Figure 5a", "more rows")
        )
        kept = bench_conftest._preserved_sections(text)
        assert "cProfile hotspots" in kept
        assert "workload: sweep15" in kept
        assert "Ablation" not in kept
        assert "Figure 5a" not in kept

    def test_empty_or_profile_free_file_resets_clean(self, bench_conftest):
        assert bench_conftest._preserved_sections("") == ""
        only_tables = self._section("Ablation: link loss", "rows")
        assert bench_conftest._preserved_sections(only_tables) == ""

    def test_preservation_is_idempotent(self, bench_conftest):
        profile = self._section(
            "cProfile hotspots (2026-07-26, quick suite, workers=2)",
            "---- workload: sweep11 ----",
        )
        once = bench_conftest._preserved_sections(profile)
        assert bench_conftest._preserved_sections(once) == once


class TestProfileMode:
    def test_profile_writes_hotspot_tables(self, bench, tmp_path, monkeypatch):
        artifacts = tmp_path / "benchmark_artifacts.txt"
        monkeypatch.setattr(bench, "ARTIFACTS", artifacts)
        monkeypatch.setattr(
            bench,
            "workload_plan",
            lambda workers, quick: [("toy", lambda: {"seconds": 0.0})],
        )
        assert bench.main(["--quick", "--profile"]) == 0
        text = artifacts.read_text()
        assert "cProfile hotspots" in text
        assert "workload: toy" in text
        assert "cumulative" in text

    def test_profile_replaces_stale_tables_keeps_other_sections(
        self, bench, tmp_path, monkeypatch
    ):
        """Repeated --profile runs must not accumulate hotspot sections
        in the tracked artifact file, and must leave the benchmark
        suite's own sections untouched."""
        artifacts = tmp_path / "benchmark_artifacts.txt"
        bar = "=" * 64
        table = f"\n{bar}\nAblation: link loss\n{bar}\nrows\n"
        artifacts.write_text(table)
        monkeypatch.setattr(bench, "ARTIFACTS", artifacts)
        monkeypatch.setattr(
            bench,
            "workload_plan",
            lambda workers, quick: [("toy", lambda: {"seconds": 0.0})],
        )
        assert bench.main(["--quick", "--profile"]) == 0
        assert bench.main(["--quick", "--profile"]) == 0
        text = artifacts.read_text()
        assert text.count("cProfile hotspots") == 1
        assert "Ablation: link loss" in text

    def test_profile_reports_identity_failures(self, bench, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "ARTIFACTS", tmp_path / "a.txt")
        monkeypatch.setattr(
            bench,
            "workload_plan",
            lambda workers, quick: [("toy", lambda: {"results_identical": False})],
        )
        assert bench.main(["--quick", "--profile"]) == 1
