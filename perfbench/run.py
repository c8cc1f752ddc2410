#!/usr/bin/env python3
"""The repository's benchmark: four closed-loop workloads, measured end
to end and split layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload cli_cells --seed 0 --seconds 16 --trace 0

Workloads (``BENCHMARK.json`` names them; ``perfbench/design.json``
records why each exists, its load shape and which layer metric should
move which end-to-end metric):

* ``cli_cells`` -- cold ``python -m repro.cli scenario run`` calls of the
  paper's two Figure 5 cells, two of 60 seeds and two of 4;
* ``service_local`` -- an in-process ``SweepService`` (local pool of 2
  workers, fsync on) serving a fixed mix of 2 long and 6 short jobs over
  HTTP;
* ``service_remote`` -- the same mix on ``SweepService(remote=True)``
  with two ``repro worker start`` subprocesses pulling shard leases;
* ``overhead_setup`` -- ``measure_setup_overhead`` on the 15x15 grid,
  16 seeds and then 2 seeds, over a pool of 2 workers.

Every workload is one client running a closed loop: the next call or job
goes out only once the previous result is in hand and checked.  The
workload seed is the ``base_seed`` of every call and job; the reference
outputs for it are computed during set-up, outside the timed region.

A run repeats *passes* of its workload for ``--seconds`` after one
discarded warm-up pass and reports medians over the passes.  With
``--trace 1`` untraced and traced passes alternate: the traced ones run
with the layer probes of ``probes.py`` installed, and the per-layer
metrics are means over them (means, so the exclusive layer shares and
``unattributed_s`` add up to the traced wall time exactly).

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the host (cores, CPU model, Python, fsync setting, ``src/``
line count).  A readable table of the metrics goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import probes  # this script's directory is sys.path[0]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Closed-loop client poll interval while a job is in flight (seconds).
CLIENT_POLL = 0.02
#: Set-up samples taken before the timed passes; workloads whose passes
#: do not set up afresh take one more after every pass (median reported).
SETUP_SAMPLES = 3
#: Offset of the remote warm-up jobs' seeds from the workload seed, far
#: from any seed a timed job uses.
WARMUP_SEED_OFFSET = 1_000_000
TERMINAL = ("done", "failed", "quarantined")

#: The service job mix: (scenario, seeds, kind).  Long jobs stress the
#: per-seed path, short ones the per-job fixed costs.
SERVICE_MIX = (
    ("churn-10pct", 60, "long"),
    ("mobile-source", 4, "short"),
    ("duty-cycle", 4, "short"),
    ("strong-attacker", 4, "short"),
    ("two-sources-slp", 60, "long"),
    ("patient-attacker", 4, "short"),
    ("cautious-attacker", 4, "short"),
    ("paper-baseline-slp", 4, "short"),
)
#: The CLI calls: the paper's two cells, long and short.
CLI_MIX = (
    ("paper-baseline", 60, "long"),
    ("paper-baseline-slp", 60, "long"),
    ("paper-baseline", 4, "short"),
    ("paper-baseline-slp", 4, "short"),
)
#: The overhead calls: (first seed offset, seed count, kind).
OVERHEAD_MIX = ((0, 16, "long"), (16, 2, "short"))
OVERHEAD_GRID = 15


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def _tree_rss_bytes(pid: int) -> int:
    """Summed resident memory of ``pid`` and all its descendants."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/statm") as handle:
                total += int(handle.read().split()[1]) * page
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    stack.extend(int(child) for child in handle.read().split())
        except (OSError, ValueError):
            continue  # the process exited while we looked
    return total


class TreeMemory:
    """Samples this process tree's resident memory while in the block."""

    def __init__(self, interval: float = 0.025) -> None:
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self.peak = 0

    def _sample(self) -> None:
        pid = os.getpid()
        while True:
            self.peak = max(self.peak, _tree_rss_bytes(pid))
            if self._stop.wait(self._interval):
                return

    def __enter__(self) -> "TreeMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


def _run_python(args: List[str], env: Dict[str, str]) -> Tuple[float, bytes, int, float]:
    """One cold subprocess: (wall seconds, stdout, exit code, peak RSS MB).

    The child is reaped with ``wait4`` so its own peak RSS is read
    exactly; stderr goes to a file so a chatty child cannot block.
    """
    with tempfile.TemporaryFile() as errors:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=errors,
            env=env,
            cwd=ROOT,
        )
        out = process.stdout.read()
        process.stdout.close()
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        if process.returncode != 0:
            errors.seek(0)
            sys.stderr.write(errors.read().decode(errors="replace"))
    return wall, out, process.returncode, usage.ru_maxrss / 1024


def _cold_start(code: str, env: Dict[str, str]) -> float:
    wall, _, code_, _ = _run_python(["-c", code], env)
    if code_ != 0:
        raise RuntimeError(f"cold start {code!r} exited {code_}")
    return wall


@dataclass
class Pass:
    """One pass of a workload and what it measured."""

    traced: bool
    start: float = 0.0
    end: float = 0.0
    seeds: int = 0
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"long": [], "short": []}
    )
    setup_s: Optional[float] = None
    worker_start_s: Optional[float] = None
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    counts: Dict[str, float] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    def check(self, passed: bool, what: str) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """A closed-loop workload: prepare once, then run passes."""

    workers = 2

    def __init__(self, seed: int, tmp: Path, env: Dict[str, str], trace_dir: Path):
        self.seed = seed
        self.tmp = tmp
        self.env = env
        self.trace_dir = trace_dir
        self.checks: List[Tuple[bool, str]] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def setup_once(self) -> Optional[float]:
        """Time one cold set-up of the system, or ``None`` where set-up
        is only measured inside passes."""
        return None

    def run_pass(self, traced: bool) -> Pass:
        raise NotImplementedError

    def cli_entry(self, traced: bool) -> Tuple[List[str], Dict[str, str]]:
        """Arguments and environment that start ``repro.cli`` in a
        subprocess: through ``boot.py``, probes installed, when traced."""
        if traced:
            env = dict(self.env, **{probes.TRACE_ENV: str(self.trace_dir)})
            return [str(BENCH_DIR / "boot.py")], env
        return ["-m", "repro.cli"], self.env

    def pin(self, name: str, measured: object) -> None:
        """Check a science pin (only for the seed the pins were taken on)."""
        pins = json.loads((BENCH_DIR / "design.json").read_text())["pins"]
        if self.seed == pins["seed"]:
            expected = pins["values"][name]
            self.checks.append(
                (measured == expected, f"pin {name}: {measured} != {expected}")
            )


class CliCells(Workload):
    workers = 1

    def prepare(self) -> None:
        from repro.experiments import reset_default_cache
        from repro.scenarios import ScenarioRunner

        self.expected: Dict[Tuple[str, int], bytes] = {}
        for name, seeds, _ in CLI_MIX:
            outcome = ScenarioRunner().run(name, seeds=seeds, base_seed=self.seed)
            self.expected[(name, seeds)] = (outcome.to_json() + "\n").encode()
            if seeds == 60:
                self.pin(f"{name}.capture_ratio", outcome.stats.capture_ratio)
            reset_default_cache()

    def setup_once(self) -> float:
        return _cold_start("import repro.cli", self.env)

    def run_pass(self, traced: bool) -> Pass:
        result = Pass(traced)
        entry, env = self.cli_entry(traced)
        result.start = time.perf_counter()
        for name, seeds, kind in CLI_MIX:
            wall, out, code, rss = _run_python(
                entry
                + ["scenario", "run", name, "--seeds", str(seeds),
                   "--seed", str(self.seed), "--quiet"],
                env,
            )
            result.latencies[kind].append(wall)
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            result.seeds += seeds
            result.check(
                code == 0 and out == self.expected[(name, seeds)],
                f"cli {name} --seeds {seeds}: exit {code}, report differs "
                "from the in-process ScenarioOutcome.to_json()",
            )
        result.end = time.perf_counter()
        return result


class ServiceWorkload(Workload):
    """The 8-job mix against a fresh in-process service per pass."""

    remote = False

    def prepare(self) -> None:
        from repro.experiments import reset_default_cache
        from repro.scenarios import ScenarioRunner

        self.expected: Dict[str, str] = {}
        for name, seeds, _ in SERVICE_MIX:
            outcome = ScenarioRunner().run(name, seeds=seeds, base_seed=self.seed)
            self.expected[name] = outcome.to_json() + "\n"
        # Forked pool workers inherit this process's schedule cache.
        reset_default_cache()

    def _start(self, data_dir: Path):
        """Start a service in ``data_dir``; returns it once /healthz answers."""
        from repro.service import ServiceClient, ServiceError, SweepService

        service = SweepService(
            data_dir, shard_workers=self.workers, remote=self.remote
        ).start()
        client = ServiceClient(service.url, timeout=30.0)
        while True:
            try:
                client.health()
                return service, client
            except ServiceError:
                time.sleep(0.005)

    def _start_fleet(self, service, client, result: Pass, traced: bool) -> Tuple[list, float]:
        """Start the worker fleet; returns it and the moment it was ready."""
        return [], time.perf_counter()

    def _stop_fleet(self, fleet: list) -> None:
        pass

    def _timed(self, result: Pass, call: Callable, *args):
        started = time.perf_counter()
        try:
            return call(*args)
        finally:
            result.count("http.requests")
            result.count("http.request_s", time.perf_counter() - started)

    def _serve(self, result: Pass, client) -> None:
        from repro.service import ServiceError

        for name, seeds, kind in SERVICE_MIX:
            started = time.perf_counter()
            try:
                job = self._timed(
                    result,
                    client.submit,
                    {"scenario": name, "seeds": seeds, "base_seed": self.seed},
                )["job"]
                while True:
                    status = self._timed(result, client.status, job)
                    result.count("http.polls")
                    if status["state"] in TERMINAL:
                        break
                    time.sleep(CLIENT_POLL)
                served = (
                    self._timed(result, client.result_text, job)
                    if status["state"] == "done"
                    else status.get("error")
                )
            except ServiceError as exc:
                served = str(exc)
            finished = time.perf_counter()
            probes.record("service.front", started, finished)
            result.latencies[kind].append(finished - started)
            result.seeds += seeds
            result.check(
                served == self.expected[name],
                f"service job {name}: served report differs from a direct "
                f"ScenarioRunner run ({str(served)[:200]})",
            )

    def run_pass(self, traced: bool) -> Pass:
        from repro.telemetry import default_registry

        result = Pass(traced)
        data_dir = Path(tempfile.mkdtemp(prefix="service-", dir=self.tmp))
        started = time.perf_counter()
        service, client = self._start(data_dir)
        fleet, ready = self._start_fleet(service, client, result, traced)
        result.setup_s = ready - started
        before = default_registry().snapshot()["counters"]
        fleet_before = self._fleet_totals(client)
        try:
            with TreeMemory() as memory:
                result.start = time.perf_counter()
                self._serve(result, client)
                result.end = time.perf_counter()
            result.peak_rss_mb = memory.peak_mb
            fleet_after = self._fleet_totals(client)
            for name in ("claims", "seeds_landed"):
                result.count(f"transport.{name}", fleet_after[name] - fleet_before[name])
        finally:
            self._stop_fleet(fleet)
            service.drain()
        after = default_registry().snapshot()["counters"]
        for name, value in after.items():
            delta = value - before.get(name, 0)
            if name.startswith("service.") and name.endswith("retries"):
                result.count("service.retries", delta)
            elif name == "service.respawns":
                result.count("service.respawns", delta)
        shutil.rmtree(data_dir, ignore_errors=True)
        return result

    @staticmethod
    def _fleet_totals(client) -> Dict[str, int]:
        workers = client.workers()["workers"]
        return {
            name: sum(int(w[name]) for w in workers)
            for name in ("claims", "seeds_landed")
        }


class ServiceLocal(ServiceWorkload):
    def setup_once(self) -> float:
        data_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=self.tmp))
        started = time.perf_counter()
        service, _ = self._start(data_dir)
        elapsed = time.perf_counter() - started
        service.drain()
        shutil.rmtree(data_dir, ignore_errors=True)
        return elapsed


class ServiceRemote(ServiceWorkload):
    remote = True

    def _start_fleet(self, service, client, result: Pass, traced: bool) -> Tuple[list, float]:
        """Start two workers; the fleet is ready once both hold a lease."""
        entry, env = self.cli_entry(traced)
        started = time.perf_counter()
        fleet = [
            subprocess.Popen(
                [sys.executable, *entry, "worker", "start",
                 "--connect", service.url, "--id", f"worker-{index}",
                 "--poll", "0.05", "--quiet"],
                env=env,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
            )
            for index in range(self.workers)
        ]
        # Warm-up jobs far from the timed seeds, until both workers have
        # claimed a shard; then wait for them so they overlap nothing.
        jobs = []
        deadline = time.monotonic() + 60.0
        while True:
            leased = [w for w in client.workers()["workers"] if w["claims"] > 0]
            if len(leased) >= self.workers:
                break
            if time.monotonic() > deadline:
                self._stop_fleet(fleet)
                raise RuntimeError("remote workers never claimed a shard")
            if not jobs or client.status(jobs[-1])["state"] in TERMINAL:
                jobs.append(
                    client.submit(
                        {
                            "scenario": "paper-baseline",
                            "seeds": 8,
                            "base_seed": self.seed + WARMUP_SEED_OFFSET + 8 * len(jobs),
                        }
                    )["job"]
                )
            time.sleep(0.005)
        ready = time.perf_counter()
        result.worker_start_s = ready - started
        for job in jobs:
            while client.status(job)["state"] not in TERMINAL:
                time.sleep(CLIENT_POLL)
        return fleet, ready

    def _stop_fleet(self, fleet: list) -> None:
        for process in fleet:
            process.send_signal(signal.SIGTERM)
        for process in fleet:
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def run_pass(self, traced: bool) -> Pass:
        result = super().run_pass(traced)
        # A worker's timed seeds are the ones it landed after set-up.
        result.check(
            result.counts.get("transport.seeds_landed", 0) == result.seeds,
            "remote workers landed a different number of seeds than the mix holds",
        )
        return result


class OverheadSetup(Workload):
    def prepare(self) -> None:
        from repro.experiments import measure_setup_overhead
        from repro.topology import paper_grid

        self.expected = {}
        for offset, count, _ in OVERHEAD_MIX:
            seeds = range(self.seed + offset, self.seed + offset + count)
            self.expected[offset] = measure_setup_overhead(
                paper_grid(OVERHEAD_GRID), seeds=seeds
            ).per_seed
        self.pin(
            "overhead.setup_messages",
            sum(m.baseline_messages + m.slp_messages for m in self.expected[0]),
        )

    def setup_once(self) -> float:
        return _cold_start(
            "from repro.experiments import measure_setup_overhead\n"
            "from repro.topology import paper_grid\n"
            f"paper_grid({OVERHEAD_GRID}).metrics",
            self.env,
        )

    def run_pass(self, traced: bool) -> Pass:
        from repro.experiments import measure_setup_overhead
        from repro.topology import paper_grid

        result = Pass(traced)
        with TreeMemory() as memory:
            result.start = time.perf_counter()
            for offset, count, kind in OVERHEAD_MIX:
                started = time.perf_counter()
                topology = paper_grid(OVERHEAD_GRID)
                probes.record("topology.build", started, time.perf_counter())
                seeds = range(self.seed + offset, self.seed + offset + count)
                measured = measure_setup_overhead(
                    topology, seeds=seeds, workers=self.workers
                )
                result.latencies[kind].append(time.perf_counter() - started)
                result.seeds += count
                result.check(
                    measured.per_seed == self.expected[offset],
                    f"overhead seeds {seeds}: pool result differs from the serial reference",
                )
            result.end = time.perf_counter()
        result.peak_rss_mb = memory.peak_mb
        return result


WORKLOADS = {
    "cli_cells": CliCells,
    "service_local": ServiceLocal,
    "service_remote": ServiceRemote,
    "overhead_setup": OverheadSetup,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(passes: List[Pass], setup: List[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "seeds_per_s": statistics.median(p.seeds / p.wall for p in passes),
        "setup_s": statistics.median(setup),
        "long_job_latency_s": statistics.median(
            x for p in passes for x in p.latencies["long"]
        ),
        "short_job_latency_s": statistics.median(
            x for p in passes for x in p.latencies["short"]
        ),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }


def per_layer(
    workload: Workload,
    untraced: List[Pass],
    traced: List[Pass],
    interpreter_s: float,
    failed_ratio: float,
) -> Dict[str, float]:
    n = len(traced)
    home = os.getpid()

    def mean(values) -> float:
        return sum(values) / n

    splits = [probes.split_wall(p.spans, p.start, p.end, home) for p in traced]

    def share(layer: str) -> float:
        return mean(s.get(layer, 0.0) for s in splits)

    def spans_of(layer: str) -> List[Dict[str, object]]:
        return [s for p in traced for s in p.spans if s["layer"] == layer]

    def total(layer: str, key: str) -> float:
        return sum(s.get(key, 0) for s in spans_of(layer))

    def busy(layer: str) -> float:
        return sum(s["t1"] - s["t0"] for s in spans_of(layer))

    def counted(name: str) -> float:
        return mean(p.counts.get(name, 0) for p in traced)

    setup_messages = total("setup.das", "messages") + total("setup.slp", "messages")
    setup_busy = busy("setup.das") + busy("setup.slp")
    appends = spans_of("storage.append")
    requests = sum(p.counts.get("http.requests", 0) for p in traced)
    traced_wall = mean(p.wall for p in traced)
    starts = [p.worker_start_s for p in untraced + traced if p.worker_start_s is not None]
    return {
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": share("cli.import"),
        "topology.build_s": share("topology.build"),
        "schedule.build_s": share("schedule.build"),
        "schedule.builds": total("schedule.build", "builds") / n,
        "operational.run_s": share("operational.run"),
        "operational.runs": len(spans_of("operational.run")) / n,
        "operational.messages": total("operational.run", "messages") / n,
        "operational.periods": total("operational.run", "periods") / n,
        "setup.das_s": share("setup.das"),
        "setup.slp_s": share("setup.slp"),
        "setup.messages": setup_messages / n,
        "setup.messages_per_s": setup_messages / setup_busy if setup_busy else 0.0,
        "pool.efficiency": mean(
            s["busy"] / (workload.workers * p.wall) for s, p in zip(splits, traced)
        ),
        "storage.append_s": share("storage.append"),
        "storage.appends": len(appends) / n,
        "storage.append_ms": (
            1000 * busy("storage.append") / len(appends) if appends else 0.0
        ),
        "http.requests": requests / n,
        "http.polls": counted("http.polls"),
        "http.request_ms": (
            1000 * sum(p.counts.get("http.request_s", 0) for p in traced) / requests
            if requests
            else 0.0
        ),
        "scheduler.run_job_s": busy("scheduler.self") / n,
        "scheduler.self_s": share("scheduler.self"),
        "service.front_s": share("service.front"),
        "service.retries": counted("service.retries"),
        "service.respawns": counted("service.respawns"),
        "transport.claims": counted("transport.claims"),
        "transport.seeds_landed": counted("transport.seeds_landed"),
        "worker.start_s": statistics.median(starts) if starts else 0.0,
        "unattributed_s": share("unattributed"),
        "trace.wall_s": traced_wall,
        "trace_overhead_s": traced_wall - statistics.median(p.wall for p in untraced),
        "failed_ratio": failed_ratio,
    }


def host_spin_ms() -> float:
    """A fixed pure-Python loop (median of 5, ms): a host-speed control
    sampled between passes, so drift of the machine shows next to the
    workload's numbers."""

    def spin() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        return time.perf_counter() - started

    return 1000 * statistics.median(spin() for _ in range(5))


def host_stamp() -> Dict[str, object]:
    from repro.storage import fsync_enabled

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(path.read_text().splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "fsync": fsync_enabled(),
        "src_lines": src_lines,
    }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    # Durable writes keep their default (fsync on): the workloads are
    # defined with it.
    os.environ.pop("REPRO_DURABLE_FSYNC", None)
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    trace_dir = tmp / "trace"
    trace_dir.mkdir()

    # Forked pool workers must not finalize objects inherited from this
    # process: the in-process service's threads use SQLite, and a child
    # whose garbage collector closes an inherited connection while the
    # fork froze another thread inside SQLite waits forever on its lock.
    # Freezing moves every object to the permanent generation, which the
    # child's collector skips; the parent's objects are unfrozen at once.
    os.register_at_fork(before=gc.freeze, after_in_parent=gc.unfreeze)

    try:
        workload = WORKLOADS[args.workload](args.seed, tmp, env, trace_dir)
        workload.prepare()
        interpreter_s = 0.0
        if args.trace:
            interpreter_s = statistics.median(
                _cold_start("pass", env) for _ in range(SETUP_SAMPLES)
            )
        warmup = workload.run_pass(traced=False)
        setup: List[float] = []
        for _ in range(SETUP_SAMPLES):
            sample = workload.setup_once()
            if sample is not None:
                setup.append(sample)
        spins = [host_spin_ms()]
        passes: List[Pass] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                probes.install(str(trace_dir))
                probes.collect(trace_dir)
            try:
                current = workload.run_pass(traced)
            finally:
                if traced:
                    probes.uninstall()
                    current_spans = probes.collect(trace_dir)
            if traced:
                # Set-up and teardown (remote warm-up jobs, worker imports)
                # fall outside the timed window.
                current.spans = [
                    span for span in current_spans
                    if current.start <= span["t0"] < current.end
                ]
            passes.append(current)
            if current.setup_s is not None:
                setup.append(current.setup_s)
            else:
                setup.append(workload.setup_once())
            spins.append(host_spin_ms())
            if time.perf_counter() >= deadline and len(passes) >= 4:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    everything = [warmup] + passes
    attempted = sum(p.attempted for p in everything) + len(workload.checks)
    failed = sum(p.failed for p in everything) + sum(
        1 for passed, _ in workload.checks if not passed
    )
    for passed, what in workload.checks:
        if not passed:
            print(f"check failed: {what}", file=sys.stderr)
    untraced = [p for p in passes if not p.traced]
    if args.trace:
        traced = [p for p in passes if p.traced]
        values = per_layer(workload, untraced, traced, interpreter_s, failed / attempted)
        values["host.spin_ms"] = statistics.median(spins)
    else:
        values = end_to_end(untraced, setup)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    for name, metric in metrics.items():
        print(f"{args.workload:>15} {name:<24} {metric['value']:>14.6f} {metric['unit']}",
              file=sys.stderr)
    stamp = dict(host_stamp(), workload=args.workload, seed=args.seed,
                 passes=len(passes), trace=args.trace,
                 host_spin_ms=statistics.median(spins))
    print(json.dumps({"meta": stamp}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
