"""Telemetry subsystem tests: span tracer, metrics registry, progress
reporter, session export, and — the load-bearing contract — that
telemetry never changes a single result byte.

The neutrality tests sweep the same scenarios with the subsystem off,
on, serially and across a forced worker pool, on every operational
kernel, and require byte-identical JSON reports throughout.  The
well-formedness test runs a fault-injection drill under a recording
session and checks the assembled multi-process span forest is a proper
tree per track.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    FaultPlan,
    ParallelExperimentRunner,
    RetryPolicy,
)
from repro.scenarios import ScenarioRunner
from repro.telemetry import (
    MetricsRegistry,
    ProgressReporter,
    SpanTracer,
    TelemetrySession,
    active_tracer,
    chrome_trace,
    default_registry,
    spans_jsonl,
    tracing,
    use_registry,
)
from repro.topology import GridTopology

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.002)


class TestSpanTracer:
    def test_nesting_depth_and_lifo(self):
        tracer = SpanTracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner", seed=3)
        assert (outer.depth, inner.depth) == (0, 1)
        tracer.end(inner)
        tracer.end(outer)
        spans = tracer.spans()
        # Closed innermost-first, each with start <= end.
        assert [s.name for s in spans] == ["inner", "outer"]
        assert all(s.end >= s.start for s in spans)
        assert spans[0].attrs == {"seed": 3}

    def test_non_lifo_end_rejected(self):
        tracer = SpanTracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RuntimeError):
            tracer.end(outer)

    def test_context_manager_and_instant(self):
        tracer = SpanTracer()
        with tracer.span("work"):
            tracer.instant("tick", n=1)
        names = {s.name for s in tracer.spans()}
        assert names == {"work", "tick"}
        tick = next(s for s in tracer.spans() if s.name == "tick")
        assert tick.end == tick.start

    def test_bounded_buffer_counts_drops(self):
        tracer = SpanTracer(max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_active_tracer_installed_and_restored(self):
        assert active_tracer() is None
        tracer = SpanTracer()
        with tracing(tracer):
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_export_payload_absorb_aligns_tracks(self):
        parent = SpanTracer(pid=100)
        worker = SpanTracer(pid=200)
        # Simulate the worker starting on a different wall clock.
        worker.wall0 = parent.wall0 + 5.0
        with worker.span("chunk.run", seeds=[0, 1]):
            with worker.span("run.once"):
                pass
        parent.absorb(worker.export_payload())
        absorbed = parent.spans()
        assert {s.pid for s in absorbed} == {200}
        # Shifted onto the parent timeline: 5 s after the parent origin.
        assert all(s.start >= 5.0 for s in absorbed)
        chunk = next(s for s in absorbed if s.name == "chunk.run")
        run = next(s for s in absorbed if s.name == "run.once")
        assert chunk.start <= run.start and run.end <= chunk.end


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2)
        registry.gauge("g", 0.5)
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 3
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["mean"] == 2.0
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 3.0

    def test_merge_combines_worker_snapshots(self):
        parent = MetricsRegistry()
        parent.inc("runs", 2)
        parent.observe("h", 1.0)
        worker = MetricsRegistry()
        worker.inc("runs", 3)
        worker.gauge("g", 7)
        worker.observe("h", 5.0)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["runs"] == 5
        assert snap["gauges"]["g"] == 7
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["max"] == 5.0

    def test_use_registry_scopes_the_default(self):
        scoped = MetricsRegistry()
        with use_registry(scoped):
            default_registry().inc("x")
        assert scoped.counter("x") == 1
        assert default_registry().counter("x") == 0


class TestProgressReporter:
    def test_renders_progress_and_rate(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            total=3, label="demo: ", stream=stream, enabled=True, min_interval=0.0
        )
        for seed in range(3):
            reporter.on_result(seed, None)
        reporter.finish()
        text = stream.getvalue()
        assert "demo: 3/3 seeds" in text
        assert "runs/s" in text
        assert text.endswith("\n")

    def test_silent_on_non_tty_by_default(self):
        stream = io.StringIO()  # not a TTY
        reporter = ProgressReporter(total=2, stream=stream)
        assert not reporter.enabled
        reporter.on_result(0, None)
        reporter.finish()
        assert stream.getvalue() == ""

    def test_ticker_shows_supervisor_deltas(self):
        registry = MetricsRegistry()
        registry.inc("supervisor.retries", 4)  # pre-existing: not shown
        stream = io.StringIO()
        with use_registry(registry):
            reporter = ProgressReporter(
                total=2, stream=stream, enabled=True, min_interval=0.0
            )
            reporter.on_result(0, None)
            registry.inc("supervisor.retries", 2)
            reporter.on_result(1, None)
        assert "retries 2" in stream.getvalue()


def _schema_check(trace: dict) -> None:
    """Chrome trace-event JSON the way Perfetto/about:tracing load it."""
    assert set(trace) >= {"traceEvents", "displayTimeUnit"}
    events = trace["traceEvents"]
    assert events, "trace must not be empty"
    pids_with_names = set()
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "M":
            assert event["name"] == "process_name"
            pids_with_names.add(event["pid"])
        elif event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
        elif event["ph"] == "i":
            assert event["s"] == "t"
        else:  # no other phases are emitted
            raise AssertionError(f"unexpected phase {event['ph']!r}")
    # Every track that carries events is named.
    assert {e["pid"] for e in events} == pids_with_names


class TestChromeTrace:
    def test_schema_and_categories(self):
        tracer = SpanTracer()
        with tracer.span("sweep.execute"):
            with tracer.span("operational.period", period=0):
                pass
            tracer.instant("chunk.retry", seeds=[1])
        trace = chrome_trace(tracer, label="unit")
        _schema_check(trace)
        x_events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["cat"] for e in x_events} == {"sweep", "operational"}
        json.dumps(trace)  # must be serialisable as-is

    def test_spans_jsonl_round_trips(self):
        tracer = SpanTracer()
        with tracer.span("a", k=1):
            pass
        rows = [json.loads(line) for line in spans_jsonl(tracer).splitlines()]
        assert rows[0]["name"] == "a"
        assert rows[0]["attrs"] == {"k": 1}


class TestTelemetrySession:
    def test_exports_all_three_artifacts(self, grid5, tmp_path):
        target = tmp_path / "telemetry"
        with TelemetrySession(directory=target, label="unit.session"):
            ExperimentRunner(grid5).run(
                ExperimentConfig(algorithm="protectionless", repeats=2)
            )
        spans = [
            json.loads(line)
            for line in (target / "spans.jsonl").read_text().splitlines()
        ]
        assert any(s["name"] == "unit.session" for s in spans)
        assert any(s["name"] == "sweep.execute" for s in spans)
        _schema_check(json.loads((target / "trace.json").read_text()))
        metrics = json.loads((target / "metrics.json").read_text())
        assert metrics["counters"]["sweep.runs"] == 2
        assert "trace.send" in metrics["counters"]
        assert "cache.hits" in metrics["gauges"]
        assert "sweep.capture_ratio" in metrics["gauges"]

    def test_root_span_covers_the_run(self, grid5, tmp_path):
        target = tmp_path / "telemetry"
        with TelemetrySession(directory=target, label="unit.cover"):
            ExperimentRunner(grid5).run(
                ExperimentConfig(algorithm="protectionless", repeats=1)
            )
        spans = [
            json.loads(line)
            for line in (target / "spans.jsonl").read_text().splitlines()
        ]
        root = next(s for s in spans if s["name"] == "unit.cover")
        first = min(s["start"] for s in spans)
        last = max(s["end"] for s in spans)
        span_of_wall = (root["end"] - root["start"]) / (last - first)
        assert span_of_wall >= 0.95

    def test_nested_sessions_rejected(self, tmp_path):
        with TelemetrySession(directory=None):
            with pytest.raises(RuntimeError):
                with TelemetrySession(directory=None):
                    pass

    def test_config_not_stamped_without_session(self, grid5):
        outcome = ExperimentRunner(grid5).run(
            ExperimentConfig(algorithm="protectionless", repeats=1)
        )
        assert outcome.results  # and no tracer was ever active
        assert active_tracer() is None


def _scenario_report(
    name: str, kernel, workers: int = 1, telemetry: bool = False
) -> str:
    runner = ScenarioRunner(
        workers=workers, force_parallel=workers > 1, kernel=kernel
    )
    if not telemetry:
        return runner.run(name, seeds=4).to_json()
    with TelemetrySession(directory=None):
        return runner.run(name, seeds=4).to_json()


class TestTelemetryNeutrality:
    """Telemetry on/off, serial/pool: the report bytes never move."""

    @pytest.mark.parametrize(
        "scenario, kernel",
        [
            ("paper-baseline", None),
            ("paper-baseline", "legacy"),
            ("churn-10pct", None),
            ("churn-10pct", "legacy"),
        ],
    )
    def test_byte_identical_reports(self, scenario, kernel):
        reference = _scenario_report(scenario, kernel)
        assert _scenario_report(scenario, kernel, telemetry=True) == reference
        assert _scenario_report(scenario, kernel, workers=2) == reference
        assert (
            _scenario_report(scenario, kernel, workers=2, telemetry=True)
            == reference
        )


def _assert_span_forest(spans) -> None:
    """Per track (pid): intervals are sane and properly nested."""
    by_pid: dict = {}
    for span in spans:
        assert span.end >= span.start, f"negative span {span.name}"
        by_pid.setdefault(span.pid, []).append(span)
    for pid_spans in by_pid.values():
        stack = []
        for span in sorted(pid_spans, key=lambda s: (s.start, -s.end)):
            while stack and span.start >= stack[-1].end:
                stack.pop()
            if stack:
                assert span.end <= stack[-1].end + 1e-9, (
                    f"{span.name} leaks out of {stack[-1].name}"
                )
                assert span.depth > stack[-1].depth
            stack.append(span)


class TestSpanTreeUnderFaults:
    def test_crash_retry_drill_produces_well_formed_forest(self, tmp_path):
        topology = GridTopology(7)
        config = ExperimentConfig(algorithm="protectionless", repeats=8)
        plan = FaultPlan(
            transient_seeds=(1,),
            crash_seeds=(4,),
            marker_dir=str(tmp_path),
        )
        session = TelemetrySession(directory=None, label="drill")
        with session:
            with plan.activated():
                with ParallelExperimentRunner(
                    topology,
                    workers=2,
                    retry_policy=FAST_RETRY,
                    chunk_timeout=60.0,
                ) as runner:
                    outcome = runner.run(config)
        assert not outcome.failures  # crash + transient both recover
        _assert_span_forest(session.tracer.spans())
        names = {s.name for s in session.tracer.spans()}
        assert "chunk.retry" in names  # the drill really retried
        assert {s.pid for s in session.tracer.spans() if s.name == "chunk.run"}
        registry = session.registry.snapshot()["counters"]
        assert registry["supervisor.retries"] >= 1
        assert registry["supervisor.chunks"] >= 4


class TestCliTelemetry:
    def test_quiet_run_writes_artifacts_and_no_status(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        telemetry = tmp_path / "telemetry"
        code = main(
            [
                "scenario",
                "run",
                "paper-baseline",
                "--seeds",
                "2",
                "--out",
                str(out),
                "--telemetry",
                str(telemetry),
                "--quiet",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert out.exists()
        for name in ("spans.jsonl", "trace.json", "metrics.json"):
            assert (telemetry / name).exists()
        _schema_check(json.loads((telemetry / "trace.json").read_text()))

    def test_status_lines_without_quiet(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "scenario",
                "run",
                "paper-baseline",
                "--seeds",
                "2",
                "--out",
                str(out),
                "--telemetry",
                str(tmp_path / "telemetry"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert f"wrote {out}" in err
        assert "schedule cache:" in err
        assert "telemetry written to" in err

    def test_figure5_telemetry(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        code = main(
            [
                "figure5",
                "--repeats",
                "1",
                "--sizes",
                "11",
                "--telemetry",
                str(telemetry),
                "--quiet",
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        metrics = json.loads((telemetry / "metrics.json").read_text())
        assert metrics["counters"]["sweep.runs"] == 2  # both algorithms

    def test_overhead_telemetry(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        code = main(
            [
                "overhead",
                "--size",
                "11",
                "--seeds",
                "1",
                "--setup-periods",
                "30",
                "--telemetry",
                str(telemetry),
                "--quiet",
            ]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        spans = [
            json.loads(line)
            for line in (telemetry / "spans.jsonl").read_text().splitlines()
        ]
        names = {s["name"] for s in spans}
        assert "overhead.seed" in names
        assert "setup.phase1" in names

    def test_pooled_overhead_ships_worker_spans(self, tmp_path):
        """A pooled run records the same work spans as a serial one: the
        workers' spans ride back with their chunks.  Only the pool's own
        bookkeeping (``chunk.dispatch`` instants, ``chunk.run`` worker
        roots) is extra."""
        from collections import Counter

        def span_names(*extra):
            telemetry = tmp_path / f"telemetry{len(extra)}"
            argv = ["overhead", "--size", "11", "--seeds", "2", "--quiet"]
            assert main(argv + ["--telemetry", str(telemetry), *extra]) == 0
            lines = (telemetry / "spans.jsonl").read_text().splitlines()
            return Counter(json.loads(line)["name"] for line in lines)

        serial = span_names()
        pooled = span_names("--workers", "2")
        assert serial == Counter(
            {"cli.overhead": 1, "overhead.seed": 2, "setup.phase1": 2, "setup.phase23": 2}
        )
        assert pooled["chunk.run"] >= 1  # the spans came from workers
        work = Counter({n: c for n, c in pooled.items() if not n.startswith("chunk.")})
        assert work == serial
