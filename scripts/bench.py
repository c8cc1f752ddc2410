#!/usr/bin/env python
"""Performance benchmark suite: times representative workloads, writes
``BENCH_<date>.json`` and compares against the most recent prior
artifact so the perf trajectory is tracked — and gated — PR over PR.

Workloads
---------
``sweep11`` / ``sweep15``
    Multi-seed capture-ratio sweeps (the unit of work behind every
    Figure 5 bar): timed serially and with a ``workers``-process pool,
    reporting the wall-clock speedup and verifying that the aggregated
    ``CaptureStats`` are identical between the two modes.  A third,
    serial *re-sweep* of the same cell verifies the schedule cache:
    identical results, >0 hits, and its own timing.
``setup15`` / ``setup7``
    Cold schedule-construction throughput with the cache disabled:
    seeded protectionless + SLP centralised builds per second (the
    setup-phase half of a sweep, moved by the array-backed topology
    metrics rather than the kernel).
``das_setup``
    One full message-level distributed DAS setup (Phase 1), on the
    default (flat-round) setup kernel.
``das_dissem15``
    Distributed dissemination throughput (messages/second) of the
    setup-phase fast kernel on the paper's 15×15 grid, with a legacy
    event-heap run of the same cell verifying schedule, message count
    and trace-counter identity (the setup kernel's bisection check).
``trace_heavy``
    One operational run with every trace record retained versus the
    counting-only default, isolating the event-loop + tracing cost.
``scenario`` / ``scenario_churn``
    Registered scenarios swept through the
    :class:`~repro.scenarios.ScenarioRunner`, serial versus the worker
    policy's choice for the requested pool, verifying the two JSON
    reports are byte-identical.
``telemetry``
    The same serial sweep with the telemetry subsystem off (the gated
    no-op path — this leg's throughput is the gated number, so a
    regression in the disabled path is caught) and on under a
    recording :class:`~repro.telemetry.TelemetrySession`, reporting
    the instrumented leg's relative overhead and verifying results are
    unchanged; ``--telemetry-out DIR`` exports the instrumented leg's
    artifacts for CI to upload.

Regression gate
---------------
After the suite runs, the most recent prior ``BENCH_*.json`` with the
same mode (quick/full) is loaded and per-workload throughput deltas are
printed; any workload more than ``--regression-threshold`` (default
15%) slower fails the run.  ``--no-regression-check`` opts out for
known-noisy environments.  CI runs the quick suite with the gate on.

Profiling
---------
``--profile`` runs each workload under ``cProfile`` and appends a
top-20 cumulative hotspot table per workload to
``benchmark_artifacts.txt`` instead of writing a ``BENCH_*.json``
(profiling skews wall-clock, so profiled timings are never tracked or
gated).  This is what keeps perf PRs profile-guided.

Usage::

    PYTHONPATH=src python scripts/bench.py             # full suite
    PYTHONPATH=src python scripts/bench.py --quick     # CI smoke mode
    PYTHONPATH=src python scripts/bench.py --profile   # hotspot tables
    PYTHONPATH=src python scripts/bench.py --workers 4 --out BENCH.json

The JSON deliberately records ``cpu_count``: process-pool speedup is
bounded by physical cores, so a 1-core container reports ~1× for the
parallel workloads while the same suite on a 4-core host reports ~3-4×.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import io
import json
import os
import platform
import pstats
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.das import run_das_setup
from repro.experiments import (
    PAPER,
    ExperimentConfig,
    ExperimentRunner,
    FaultPlan,
    ParallelExperimentRunner,
    RetryPolicy,
    default_schedule_cache,
    workers_argument,
)
from repro.scenarios import ScenarioRunner
from repro.storage import atomic_write_text
from repro.topology import GridTopology, paper_grid

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = REPO_ROOT / "benchmark_artifacts.txt"


def _load_artifact_sections():
    """Load the shared artifact-section grammar (scripts/ is not a
    package, and this script is itself loaded via importlib by tests,
    so a plain relative import is not available)."""
    path = Path(__file__).resolve().parent / "artifact_sections.py"
    spec = importlib.util.spec_from_file_location("artifact_sections", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_sections = _load_artifact_sections()

#: Header prefix of the profiler's sections in ``benchmark_artifacts.txt``.
#: ``benchmarks/conftest.py`` preserves sections with this prefix when it
#: resets the file, and ``_without_profile_sections`` replaces stale ones
#: on the next ``--profile`` run — together they keep exactly one profile
#: run in the file alongside the benchmark tables.
PROFILE_SECTION_PREFIX = artifact_sections.PROFILE_SECTION_PREFIX

#: Default regression-gate threshold: a tracked workload may not lose
#: more than this fraction of its throughput versus the prior artifact.
REGRESSION_THRESHOLD = 0.15


def _grid(size: int) -> GridTopology:
    """Paper grid when the size is a paper size, plain grid otherwise
    (quick mode uses a 7x7 the paper never evaluates)."""
    try:
        return paper_grid(size)
    except Exception:
        return GridTopology(size)


def _time(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def _cache_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Hits/misses accrued in this process since ``before``."""
    after = default_schedule_cache().stats()
    return {
        "cache_hits": after["hits"] - before["hits"],
        "cache_misses": after["misses"] - before["misses"],
    }


def bench_sweep(size: int, repeats: int, workers: int, noise: str = "casino") -> dict:
    """Serial vs parallel capture-ratio sweep on one grid size, plus a
    serial re-sweep that exercises (and verifies) the schedule cache.

    The parallel leg disables the schedule cache: the pool is forked
    from a parent whose cache the serial leg just populated, so a
    cached parallel leg would skip every schedule build the serial leg
    paid for and overstate the pool speedup.  With the cache off both
    timed legs do identical work; the re-sweep measures the cache win
    explicitly.
    """
    topology = _grid(size)
    config = ExperimentConfig(algorithm="protectionless", repeats=repeats, noise=noise)
    uncached = ExperimentConfig(
        algorithm="protectionless",
        repeats=repeats,
        noise=noise,
        use_schedule_cache=False,
    )
    cache_before = default_schedule_cache().stats()

    serial = ExperimentRunner(topology)
    serial_s, serial_outcome = _time(serial.run, config)

    with ParallelExperimentRunner(topology, workers=workers) as runner:
        # Warm the pool outside the timed region: pool start-up is a
        # one-off cost the sweep itself should not be charged for.
        runner.run(
            ExperimentConfig(
                algorithm="protectionless",
                repeats=workers,
                noise=noise,
                use_schedule_cache=False,
            )
        )
        parallel_s, parallel_outcome = _time(runner.run, uncached)

    # The identity re-sweep: same process, same cell — every schedule
    # build should now be a cache hit, and results must not change.
    resweep_s, resweep_outcome = _time(serial.run, config)

    stats_identical = asdict(serial_outcome.stats) == asdict(parallel_outcome.stats)
    results_identical = serial_outcome.results == parallel_outcome.results
    result = {
        "grid": f"{size}x{size}",
        "repeats": repeats,
        "workers": workers,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "resweep_seconds": round(resweep_s, 4),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "runs_per_second_serial": round(repeats / serial_s, 2),
        "runs_per_second_parallel": round(repeats / parallel_s, 2),
        "capture_ratio": serial_outcome.stats.capture_ratio,
        "stats_identical": stats_identical,
        "results_identical": results_identical,
        "resweep_identical": resweep_outcome.results == serial_outcome.results,
    }
    result.update(_cache_delta(cache_before))
    return result


def bench_scenario(name: str, repeats: int, workers: int) -> dict:
    """Serial vs parallel scenario sweep via the ScenarioRunner.

    The identity check is the strongest one the suite has: not just
    equal stats but byte-identical JSON reports (per-run rows,
    per-source breakdowns, first-capture aggregation and all).  The
    "parallel" leg goes through the worker policy, so on hosts where a
    pool cannot win (fewer cores than workers, tiny sweeps) it falls
    back to the serial engine — ``workers_effective`` records the
    policy's choice.  When that choice *is* the serial engine, both
    legs run identical code and the engine speedup is 1.0 by
    construction; ``speedup`` reports that structural value (the
    measured ratio of two identical runs is timer noise, which would
    make the tracked artifact flaky) while ``measured_ratio`` keeps the
    raw observation.
    """
    cache_before = default_schedule_cache().stats()
    serial = ScenarioRunner(workers=1)
    serial_s, serial_outcome = _time(serial.run, name, repeats)

    parallel = ScenarioRunner(workers=workers)
    effective = parallel.effective_workers(name, seeds=repeats)
    parallel_s, parallel_outcome = _time(parallel.run, name, repeats)

    measured = round(serial_s / parallel_s, 3) if parallel_s else None
    result = {
        "scenario": name,
        "repeats": repeats,
        "workers": workers,
        "workers_effective": effective,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "speedup": measured if effective > 1 else 1.0,
        "measured_ratio": measured,
        "runs_per_second_serial": round(repeats / serial_s, 2),
        "runs_per_second_parallel": round(repeats / parallel_s, 2),
        "capture_ratio": serial_outcome.stats.capture_ratio,
        "results_identical": serial_outcome.to_json() == parallel_outcome.to_json(),
    }
    result.update(_cache_delta(cache_before))
    return result


def bench_setup(size: int, builds: int) -> dict:
    """Cold schedule-construction throughput (cache disabled).

    Builds ``builds`` seeded protectionless + SLP schedule pairs
    through :meth:`ExperimentRunner.build_schedule` with the schedule
    cache off, so every build pays the full centralised pipeline
    (wave order, repair fixpoint, search, refinement).  This is the
    setup-phase half of a sweep's cost — the part the array-backed
    topology metrics move — tracked separately so the regression gate
    covers it even when sweep workloads are dominated by the kernel.
    """
    topology = _grid(size)
    runner = ExperimentRunner(topology)
    protectionless = ExperimentConfig(
        algorithm="protectionless", repeats=builds, use_schedule_cache=False
    )
    slp = ExperimentConfig(
        algorithm="slp", repeats=builds, use_schedule_cache=False
    )

    def build_all() -> int:
        for seed in range(builds):
            runner.build_schedule(protectionless, seed)
            runner.build_schedule(slp, seed)
        return 2 * builds

    elapsed, total = _time(build_all)
    return {
        "grid": f"{size}x{size}",
        "builds": total,
        "seconds": round(elapsed, 4),
        "builds_per_second": round(total / elapsed, 2),
    }


def bench_das_setup(size: int, setup_periods: int) -> dict:
    """One full message-level distributed DAS setup."""
    topology = _grid(size)
    config = PAPER.das_config(setup_periods=setup_periods)
    elapsed, result = _time(run_das_setup, topology, config=config, seed=0)
    return {
        "grid": f"{size}x{size}",
        "setup_periods": setup_periods,
        "seconds": round(elapsed, 4),
        "messages_sent": result.messages_sent,
        "messages_per_second": round(result.messages_sent / elapsed, 1),
    }


def bench_das_dissem(size: int, setup_periods: int) -> dict:
    """Distributed dissemination rounds: setup kernel vs legacy heap.

    Times one full Phase 1 gossip on the flat-round setup kernel
    (``messages_per_second`` is the tracked, gated number) and re-runs
    the identical cell on the legacy event-heap engine, verifying the
    two produce the same schedule, the same ``messages_sent`` and the
    same trace counters — the bench-side half of the setup kernel's
    bit-identity contract (``tests/test_fast_setup.py`` is the other).
    """
    from repro.simulator import trace as trace_kinds

    topology = _grid(size)
    config = PAPER.das_config(setup_periods=setup_periods)
    fast_s, fast = _time(
        run_das_setup, topology, config=config, seed=0, setup_kernel="fast"
    )
    legacy_s, legacy = _time(
        run_das_setup, topology, config=config, seed=0, setup_kernel="legacy"
    )

    def counts(result):
        kinds = (
            trace_kinds.SEND,
            trace_kinds.DELIVER,
            trace_kinds.DROP,
            trace_kinds.SLOT_ASSIGNED,
            trace_kinds.SLOT_CHANGED,
        )
        return {kind: result.simulator.trace.count(kind) for kind in kinds}

    identical = (
        fast.schedule.slots() == legacy.schedule.slots()
        and fast.schedule.parents() == legacy.schedule.parents()
        and fast.messages_sent == legacy.messages_sent
        and counts(fast) == counts(legacy)
    )
    return {
        "grid": f"{size}x{size}",
        "setup_periods": setup_periods,
        "seconds": round(fast_s, 4),
        "legacy_seconds": round(legacy_s, 4),
        "kernel_speedup": round(legacy_s / fast_s, 3) if fast_s else None,
        "messages_sent": fast.messages_sent,
        "messages_per_second": round(fast.messages_sent / fast_s, 1),
        "results_identical": identical,
    }


def bench_trace_heavy(size: int) -> dict:
    """Counting-only vs full-record tracing on one operational run."""
    from repro.app import run_operational_phase
    from repro.das import centralized_das_schedule

    topology = _grid(size)
    schedule = centralized_das_schedule(topology, num_slots=PAPER.num_slots, seed=0)

    counting_s, counting = _time(
        run_operational_phase, topology, schedule, seed=0, frame=PAPER.frame()
    )
    full_s, full = _time(
        run_operational_phase,
        topology,
        schedule,
        seed=0,
        frame=PAPER.frame(),
        trace_kinds=None,
    )
    return {
        "grid": f"{size}x{size}",
        "counting_only_seconds": round(counting_s, 4),
        "full_trace_seconds": round(full_s, 4),
        "counting_only_speedup": round(full_s / counting_s, 3) if counting_s else None,
        "outcome_identical": counting == full,
        "messages_sent": counting.messages_sent,
    }


def bench_telemetry(
    size: int, repeats: int, out_dir: Optional[Path] = None
) -> dict:
    """Telemetry on/off A/B on one serial sweep.

    Times the identical sweep twice: with the subsystem disabled (the
    gated no-op path every normal run takes — ``runs_per_second_serial``
    reports this leg, so the regression gate guards it) and under a
    :class:`~repro.telemetry.TelemetrySession` recording spans and
    metrics (``telemetry_overhead_fraction`` is the relative cost of
    the instrumented leg).  A warm-up sweep fills the schedule cache
    first so both legs are pure kernel work, and the two outcomes must
    be equal — telemetry never touches result bytes.  With ``out_dir``
    the instrumented leg also exports its artifacts there (CI uploads
    them).
    """
    from repro.telemetry import TelemetrySession

    topology = _grid(size)
    config = ExperimentConfig(algorithm="protectionless", repeats=repeats)
    runner = ExperimentRunner(topology)
    runner.run(config)  # warm-up: pay the schedule builds once

    off_s, off_outcome = _time(runner.run, config)

    session = TelemetrySession(directory=out_dir, label="bench.telemetry")
    with session:
        on_s, on_outcome = _time(runner.run, config)

    return {
        "grid": f"{size}x{size}",
        "repeats": repeats,
        "seconds_off": round(off_s, 4),
        "seconds_on": round(on_s, 4),
        "runs_per_second_serial": round(repeats / off_s, 2),
        "telemetry_overhead_fraction": round(on_s / off_s - 1.0, 4) if off_s else None,
        "spans_recorded": len(session.tracer.spans()),
        "results_identical": off_outcome.results == on_outcome.results,
    }


def workload_plan(
    workers: int, quick: bool, telemetry_dir: Optional[Path] = None
) -> List[Tuple[str, Callable[[], dict]]]:
    """The suite as an ordered (name, thunk) list, shared by the timed
    run and the profiler."""
    if quick:
        return [
            ("sweep11", lambda: bench_sweep(11, repeats=4, workers=workers)),
            ("setup7", lambda: bench_setup(7, builds=4)),
            ("das_setup", lambda: bench_das_setup(7, setup_periods=16)),
            ("das_dissem15", lambda: bench_das_dissem(15, setup_periods=20)),
            ("trace_heavy", lambda: bench_trace_heavy(7)),
            ("scenario", lambda: bench_scenario("two-sources", repeats=4, workers=workers)),
            ("telemetry", lambda: bench_telemetry(7, repeats=4, out_dir=telemetry_dir)),
        ]
    return [
        ("sweep11", lambda: bench_sweep(11, repeats=30, workers=workers)),
        ("sweep15", lambda: bench_sweep(15, repeats=20, workers=workers)),
        ("setup15", lambda: bench_setup(15, builds=10)),
        ("das_setup", lambda: bench_das_setup(11, setup_periods=30)),
        ("das_dissem15", lambda: bench_das_dissem(15, setup_periods=80)),
        ("trace_heavy", lambda: bench_trace_heavy(11)),
        ("scenario", lambda: bench_scenario("two-sources", repeats=20, workers=workers)),
        ("scenario_churn", lambda: bench_scenario("churn-10pct", repeats=20, workers=workers)),
        ("telemetry", lambda: bench_telemetry(15, repeats=20, out_dir=telemetry_dir)),
    ]


def cpu_model() -> str:
    """The CPU model string, best-effort across platforms."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> dict:
    """What makes one host's throughput numbers comparable to another's.

    Stamped into every BENCH artifact's ``meta.host``; the regression
    gate compares fingerprints and *warns instead of failing* when the
    baseline came from different hardware or a different interpreter —
    a cross-host delta measures the machines, not the code.
    """
    return {
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_suite(
    workers: int, quick: bool, telemetry_dir: Optional[Path] = None
) -> dict:
    suite: dict = {
        "meta": {
            "date": time.strftime("%Y-%m-%d %H:%M:%S"),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "host": host_fingerprint(),
            "workers": workers,
            "quick": quick,
        },
        "workloads": {},
    }
    for name, thunk in workload_plan(workers, quick, telemetry_dir):
        suite["workloads"][name] = thunk()
    suite["meta"]["schedule_cache"] = default_schedule_cache().stats()
    return suite


def _without_profile_sections(text: str) -> str:
    """``text`` minus any previous profiler sections, so repeated
    ``--profile`` runs replace their own tables instead of accumulating
    in the tracked artifact file (the benchmark suite's sections are
    preserved verbatim; ``benchmarks/conftest.py`` applies the inverse
    filter through the same shared grammar)."""
    return artifact_sections.filter_sections(
        text, lambda title: not title.startswith(PROFILE_SECTION_PREFIX)
    )


def profile_suite(workers: int, quick: bool, artifacts: Path) -> dict:
    """Run every workload under cProfile and append the top-20
    cumulative hotspots per workload to ``artifacts`` (replacing the
    previous run's tables, preserving every other section)."""
    sections = [
        "",
        artifact_sections.BAR,
        f"{PROFILE_SECTION_PREFIX} ({time.strftime('%Y-%m-%d %H:%M:%S')}, "
        f"{'quick' if quick else 'full'} suite, workers={workers})",
        artifact_sections.BAR,
    ]
    suite: dict = {"meta": {"profiled": True, "quick": quick}, "workloads": {}}
    for name, thunk in workload_plan(workers, quick):
        profiler = cProfile.Profile()
        profiler.enable()
        suite["workloads"][name] = thunk()
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(20)
        sections.append(f"\n---- workload: {name} (top 20 by cumulative time) ----")
        sections.append(stream.getvalue().rstrip())
    existing = artifacts.read_text() if artifacts.exists() else ""
    atomic_write_text(
        artifacts,
        _without_profile_sections(existing) + "\n".join(sections) + "\n",
    )
    return suite


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def workload_throughput(data: dict) -> Optional[float]:
    """One higher-is-better number per workload, for PR-over-PR deltas.

    Seed sweeps and scenarios report serial runs/second (the number the
    single-run optimisations move; pool speedup is hardware-bound), the
    cold setup workload schedule builds/second, the distributed setup
    messages/second, and the trace workload the inverse of its
    counting-only run time.
    """
    for key in ("runs_per_second_serial", "builds_per_second", "messages_per_second"):
        value = data.get(key)
        if value:
            return float(value)
    seconds = data.get("counting_only_seconds")
    if seconds:
        return 1.0 / float(seconds)
    return None


def find_previous_bench(quick: bool, exclude: Path) -> Optional[Path]:
    """The most recent prior ``BENCH_*.json`` of the same mode."""
    candidates = []
    for path in REPO_ROOT.glob("BENCH_*.json"):
        if path.resolve() == exclude.resolve():
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if "workloads" not in data:
            # Another harness's record (e.g. perfbench pairs): nothing
            # here to compare against.
            continue
        if bool(data.get("meta", {}).get("quick")) != quick:
            continue
        if data.get("meta", {}).get("profiled"):
            continue
        candidates.append((path.stat().st_mtime, path))
    if not candidates:
        return None
    return max(candidates)[1]


def compare_with_previous(
    suite: dict, previous: dict, threshold: float
) -> Tuple[List[str], List[str]]:
    """Per-workload delta lines and the workloads breaching ``threshold``."""
    lines = [
        f"{'workload':<16} {'previous':>12} {'current':>12} {'delta':>8}",
        "-" * 52,
    ]
    regressions: List[str] = []
    for name, data in suite["workloads"].items():
        current = workload_throughput(data)
        prior_data = previous.get("workloads", {}).get(name)
        prior = workload_throughput(prior_data) if prior_data else None
        if current is None or prior is None:
            lines.append(f"{name:<16} {'-':>12} {'-':>12} {'n/a':>8}")
            continue
        delta = current / prior - 1.0
        lines.append(
            f"{name:<16} {prior:>12.2f} {current:>12.2f} {delta:>+7.1%}"
        )
        if delta < -threshold:
            regressions.append(name)
    return lines, regressions


def default_output_path() -> Path:
    """``BENCH_<date>.json``, suffixed (b, c, …) rather than clobbering
    an existing same-day artifact — the prior file is the regression
    baseline and part of the tracked perf history."""
    stamp = time.strftime("%Y%m%d")
    path = REPO_ROOT / f"BENCH_{stamp}.json"
    suffix = "b"
    while path.exists():
        path = REPO_ROOT / f"BENCH_{stamp}{suffix}.json"
        suffix = chr(ord(suffix) + 1)
    return path


def run_chaos(workers: int) -> int:
    """Quick supervised-execution drill: inject a transient failure, a
    worker crash and a poison seed into one small sweep and check the
    recovery contract — survivors identical to a fault-free serial
    sweep, only the poison seed quarantined.  Used as a fast CI leg
    (``--chaos``); writes no BENCH json and runs no timing gate.
    """
    import tempfile

    topology = GridTopology(7)
    config = ExperimentConfig(algorithm="protectionless", repeats=10, base_seed=0)
    serial = ExperimentRunner(topology).run(config)
    with tempfile.TemporaryDirectory() as markers:
        plan = FaultPlan(
            transient_seeds=(1,),
            crash_seeds=(4,),
            poison_seeds=(7,),
            marker_dir=markers,
        )
        with plan.activated():
            with ParallelExperimentRunner(
                topology,
                workers=max(workers, 2),
                retry_policy=RetryPolicy(max_attempts=4, base_delay=0.01),
                chunk_timeout=60.0,
            ) as runner:
                outcome = runner.run(config)
    quarantined = [f.seed for f in outcome.failures]
    expected = tuple(r for i, r in enumerate(serial.results) if i != 7)
    checks = {
        "quarantined_only_poison": quarantined == [7],
        "survivors_identical": outcome.results == expected,
        "stats_cover_survivors": outcome.stats.runs == config.repeats - 1,
    }
    for name, passed in checks.items():
        print(f"chaos {name}: {'ok' if passed else 'FAILED'}", file=sys.stderr)
    if not all(checks.values()):
        print(f"CHAOS CHECK FAILED: {outcome.failures}", file=sys.stderr)
        return 1
    print("chaos drill passed", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=workers_argument,
        default=4,
        help="pool size for the parallel sweeps (default 4; 0 = one per CPU)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: tiny workloads, seconds not minutes (used by CI)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default: BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each workload under cProfile and append top-20 hotspot "
        "tables to benchmark_artifacts.txt (no BENCH json, no gate)",
    )
    parser.add_argument(
        "--no-regression-check",
        action="store_true",
        help="skip the throughput comparison against the prior BENCH "
        "artifact (for known-noisy environments)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="explicit prior BENCH json to compare against (default: the "
        "most recent BENCH_*.json of the same mode in the repo root)",
    )
    parser.add_argument(
        "--regression-threshold",
        type=float,
        default=REGRESSION_THRESHOLD,
        help="fractional throughput loss that fails the run (default 0.15)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the supervised-execution chaos drill instead of the "
        "timing suite (no BENCH json, no gate)",
    )
    parser.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="export the telemetry workload's spans.jsonl/trace.json/"
        "metrics.json under DIR (CI uploads them as artifacts)",
    )
    args = parser.parse_args(argv)

    if args.chaos:
        return run_chaos(args.workers)

    if args.profile:
        suite = profile_suite(args.workers, args.quick, ARTIFACTS)
        print(f"wrote hotspot tables to {ARTIFACTS}", file=sys.stderr)
    else:
        suite = run_suite(
            workers=args.workers,
            quick=args.quick,
            telemetry_dir=args.telemetry_out,
        )

    failures = [
        name
        for name, data in suite["workloads"].items()
        if any(
            key.endswith("identical") and value is False
            for key, value in data.items()
        )
    ]

    if args.profile:
        if failures:
            print(f"IDENTITY CHECK FAILED for: {failures}", file=sys.stderr)
            return 1
        return 0

    out = args.out if args.out is not None else default_output_path()
    previous_path = (
        args.baseline
        if args.baseline is not None
        else find_previous_bench(args.quick, exclude=out)
    )
    atomic_write_text(out, json.dumps(suite, indent=2, sort_keys=True) + "\n")

    print(json.dumps(suite, indent=2, sort_keys=True))
    print(f"\nwrote {out}", file=sys.stderr)

    exit_code = 0
    if failures:
        print(f"IDENTITY CHECK FAILED for: {failures}", file=sys.stderr)
        exit_code = 1

    if args.no_regression_check:
        print("regression check skipped (--no-regression-check)", file=sys.stderr)
    elif previous_path is None:
        print(
            "regression check skipped: no prior BENCH_*.json for this mode",
            file=sys.stderr,
        )
    else:
        previous = json.loads(previous_path.read_text())
        lines, regressions = compare_with_previous(
            suite, previous, args.regression_threshold
        )
        print(f"\ndeltas vs {previous_path.name}:", file=sys.stderr)
        for line in lines:
            print(line, file=sys.stderr)
        if regressions:
            baseline_host = previous.get("meta", {}).get("host")
            current_host = suite.get("meta", {}).get("host")
            if baseline_host != current_host:
                # Different hardware or interpreter (or a pre-fingerprint
                # baseline): the delta measures the host, not the code.
                print(
                    f"WARNING: >{args.regression_threshold:.0%} throughput "
                    f"loss in {regressions}, but the baseline's host "
                    f"fingerprint differs ({baseline_host} vs "
                    f"{current_host}) — not failing the gate",
                    file=sys.stderr,
                )
            else:
                print(
                    f"REGRESSION: >{args.regression_threshold:.0%} throughput loss "
                    f"in: {regressions}",
                    file=sys.stderr,
                )
                exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
