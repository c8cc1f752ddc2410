"""Layer probes for the traced benchmark run, and the wall-clock split.

:func:`install` wraps the public function of each layer the benchmark's
paths call (the benchmark's own code, no spans inside ``src/``).  Every
call writes one JSON line -- layer, process, thread, start, end and any
exact counts read off the result -- to ``<trace_dir>/<pid>.jsonl``.
Clocks are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so
spans from forked pool workers and worker subprocesses share one
timeline with the benchmark process.  Forked pool workers inherit the
wrappers; subprocesses get them through ``boot.py``.

:func:`split_wall` turns one pass's spans into an exclusive split of its
wall time: every instant goes to the *work* layers running then (the
innermost span of each busy thread, shared equally between threads); an
instant with no work running goes to the innermost *orchestration* span
(the job scheduler, then the client's job in flight); anything else is
unattributed.  The shares therefore add up to the pass's wall time
exactly.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Environment variable carrying the trace directory into subprocesses.
TRACE_ENV = "PERFBENCH_TRACE_DIR"

#: Layers whose spans are work (split between concurrently busy threads).
WORK_LAYERS = (
    "cli.import",
    "topology.build",
    "schedule.build",
    "operational.run",
    "storage.append",
    "setup.das",
    "setup.slp",
)
#: Orchestration layers, highest priority first: they own an instant
#: only while no work span runs anywhere.
ORCHESTRATION_LAYERS = ("scheduler.self", "service.front")


class _Sink:
    """One append-only trace file per process (re-opened after fork)."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._pid: Optional[int] = None
        self._fd: Optional[int] = None

    def write(self, record: Dict[str, object]) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._fd = os.open(
                os.path.join(self.directory, f"{pid}.jsonl"),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            self._pid = pid
        # One write per record: O_APPEND keeps concurrent threads' lines whole.
        os.write(self._fd, (json.dumps(record) + "\n").encode())


_sink: Optional[_Sink] = None
_patches: List[tuple] = []


def record(layer: str, t0: float, t1: float, **counts: float) -> None:
    """Write one span (a no-op unless probes are installed)."""
    if _sink is None:
        return
    entry = {
        "layer": layer,
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "t0": t0,
        "t1": t1,
    }
    entry.update(counts)
    _sink.write(entry)


def _wrap(
    owner: object,
    attr: str,
    layer: str,
    counts: Optional[Callable[[object], Dict[str, float]]] = None,
) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = original(*args, **kwargs)
        record(layer, t0, time.perf_counter(), **(counts(result) if counts else {}))
        return result

    _patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, wrapper)


def _wrap_first_metrics(topology_cls: type) -> None:
    """``Topology.metrics`` is a lazily built property: span only the
    first access per topology object, which is the build."""
    prop = topology_cls.__dict__["metrics"]
    seen: "weakref.WeakSet" = weakref.WeakSet()

    def fget(self):
        if self in seen:
            return prop.fget(self)
        seen.add(self)
        t0 = time.perf_counter()
        metrics = prop.fget(self)
        record("topology.build", t0, time.perf_counter())
        return metrics

    _patches.append((topology_cls, "metrics", prop))
    topology_cls.metrics = property(fget, doc=prop.__doc__)


def install(trace_dir: str) -> None:
    """Wrap every probed layer function, writing spans under ``trace_dir``."""
    global _sink
    if _sink is not None:
        raise RuntimeError("probes already installed")
    from repro.experiments import ExperimentRunner, SweepCheckpoint
    from repro.experiments import overhead as overhead_module
    from repro.experiments import runner as runner_module
    from repro.scenarios import ScenarioSpec
    from repro.service import RemoteShardScheduler, ShardScheduler
    from repro.topology import Topology

    _sink = _Sink(trace_dir)
    _wrap(ScenarioSpec, "build_topology", "topology.build")
    _wrap_first_metrics(Topology)
    _wrap(ExperimentRunner, "build_schedule", "schedule.build", lambda s: {"builds": 1})
    _wrap(
        runner_module,
        "run_operational_phase",
        "operational.run",
        lambda r: {"messages": r.messages_sent, "periods": r.periods_run},
    )
    _wrap(
        overhead_module,
        "run_das_setup",
        "setup.das",
        lambda r: {"messages": r.messages_sent},
    )
    _wrap(
        overhead_module,
        "run_slp_setup",
        "setup.slp",
        lambda r: {"messages": r.messages_sent},
    )
    _wrap(SweepCheckpoint, "append", "storage.append")
    _wrap(ShardScheduler, "run_job", "scheduler.self")
    _wrap(RemoteShardScheduler, "run_job", "scheduler.self")


def uninstall() -> None:
    """Restore every wrapped function (untraced passes run unpatched)."""
    global _sink
    while _patches:
        owner, attr, original = _patches.pop()
        setattr(owner, attr, original)
    _sink = None


def install_from_env() -> None:
    """Subprocess entry: install when ``PERFBENCH_TRACE_DIR`` is set."""
    directory = os.environ.get(TRACE_ENV)
    if directory:
        install(directory)


def collect(trace_dir: Path) -> List[Dict[str, object]]:
    """Read and delete every span written under ``trace_dir``."""
    spans: List[Dict[str, object]] = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line:
                spans.append(json.loads(line))
        path.unlink()
    return spans


def split_wall(
    spans: List[Dict[str, object]], start: float, end: float, home_pid: int
) -> Dict[str, float]:
    """Exclusive wall-clock share of each layer over ``[start, end]``.

    Returns ``{layer: seconds}`` plus ``"unattributed"``; those values
    sum to ``end - start``.  Also returns ``"busy"``: thread-seconds of
    work in processes other than ``home_pid`` (the benchmark's own) --
    the pool-efficiency numerator.
    """
    events = []
    for index, span in enumerate(spans):
        t0 = max(span["t0"], start)
        t1 = min(span["t1"], end)
        if t1 > t0:
            events.append((t0, 1, index))
            events.append((t1, 0, index))
    events.sort()
    shares: Dict[str, float] = {"unattributed": 0.0, "busy": 0.0}
    active: set = set()
    previous = start

    def allot(until: float) -> None:
        dt = until - previous
        if dt <= 0:
            return
        innermost: Dict[tuple, Dict[str, object]] = {}
        fallback = None
        for index in active:
            span = spans[index]
            if span["layer"] in WORK_LAYERS:
                key = (span["pid"], span["tid"])
                held = innermost.get(key)
                if held is None or span["t0"] > held["t0"]:
                    innermost[key] = span
            elif fallback is None or ORCHESTRATION_LAYERS.index(
                span["layer"]
            ) < ORCHESTRATION_LAYERS.index(fallback["layer"]):
                fallback = span
        if innermost:
            for span in innermost.values():
                layer = span["layer"]
                shares[layer] = shares.get(layer, 0.0) + dt / len(innermost)
            shares["busy"] += dt * sum(
                1 for pid, _ in innermost if pid != home_pid
            )
        elif fallback is not None:
            layer = fallback["layer"]
            shares[layer] = shares.get(layer, 0.0) + dt
        else:
            shares["unattributed"] += dt

    for when, kind, index in events:
        allot(when)
        previous = max(previous, when)
        if kind:
            active.add(index)
        else:
            active.discard(index)
    allot(end)
    return shares
