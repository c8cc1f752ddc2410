"""Import boundaries: a cold CLI call loads only what its subcommand runs.

* A cold ``scenario run`` must not import numpy or networkx, nor the
  process-pool, SQLite or socket machinery: numpy and networkx each cost
  ~0.1 s of every cold CLI call and remote worker start, and a serial
  sweep builds no pool, opens no schedule store and talks to no service.
* Nor does it load the distributed setup stack, the chaos harness, the
  supervision code or the service: no registered scenario builds its
  schedules with the message-level protocols, and a serial sweep has no
  worker to supervise.  Without bytecode caches every module a call
  imports is compiled afresh, so each one is paid for on every call.
* A fast-kernel run loads no legacy engine: the event heap, the
  process objects, their channels and the TDMA driver load only for
  ``--legacy-kernel`` (the oracle).  A protectionless
  run loads no SLP code.  The repro source a cold protectionless call
  compiles stays within a budget.
* ``import repro.cli`` loads the parser and nothing else; each
  subcommand imports its own dependencies.
* The overhead experiment runs only the distributed setup kernels, so
  it loads none of the operational engine, and a serial run loads no
  pool, supervision or fault-plan code either.  The fast setup kernel
  builds no process object, so the legacy setup engine (the node
  processes, their wire messages and the event heap) loads only for
  ``--legacy-setup-kernel``, and a cold serial run stays within a
  source budget too.
* A cold ``scenario run`` of a registered scenario loads no JSON
  document codec: ``ScenarioSpec`` imports it on first use.
* No cold entry point loads ``dataclasses`` or its ``inspect`` chain
  (the package's records are :class:`repro.records.Record` classes),
  and a cold ``scenario run`` loads no ``hashlib`` either: the
  topology digest is taken only where a key leaves the process.
* The other way round, a process that forks workers imports what its
  seeds execute *before* it forks, so the workers inherit it instead of
  each compiling it again (DESIGN.md "Import boundaries"); a pooled
  sweep forks them with the shard board, the fleet and the pull loop.
* Without a fault plan nothing loads the chaos harness or
  ``concurrent.futures``: not a remote worker, not a pooled sweep.
* The service keeps its jobs in a JSONL log, not SQLite: no module of
  ``repro.service`` imports ``sqlite3``, and neither a cold ``service
  start`` nor a cold ``worker start`` loads it.

The child interpreters run the CLI under ``runpy`` and report which
modules ended up loaded.  Run under ``python -X importtime -m pytest -s``
to pass the flag to the children, whose import profiles then land on
stderr.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.experiments.options import FAULT_PLAN_ENV

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("numpy", "networkx")

#: Loaded only where a pool is built, a store opened or a service called.
MACHINERY = ("multiprocessing", "sqlite3", "socket")

#: Loaded only by the subcommands and branches that run them.
DEFERRED = (
    "repro.das.protocol",
    "repro.das.fast_setup",
    "repro.das.messages",
    "repro.slp.distributed",
    "repro.slp.messages",
    "repro.scenarios.codec",
    "repro.experiments.faults",
    "repro.experiments.pool",
    "repro.experiments.resilience",
    "repro.service",
    "concurrent.futures",
)

#: The modules a seed executes.  A process that forks workers must have
#: them loaded before it forks.
RUN_PATH = (
    "repro.experiments.runner",
    "repro.app.fast_kernel",
    "repro.app.runtime",
    "repro.das.centralized",
)

#: What an SLP seed executes on top of the run path.
SLP_PATH = ("repro.slp.protocol", "repro.slp.refine", "repro.slp.search")

#: The legacy operational engine: the event heap, the process objects
#: and their channels, the TDMA driver, and the convergecast processes
#: it drives.  Only ``--legacy-kernel`` runs it.
LEGACY_ENGINE = (
    "repro.simulator.event",
    "repro.simulator.event_queue",
    "repro.simulator.channel",
    "repro.simulator.process",
    "repro.mac.tdma",
    "repro.app.convergecast",
)

#: Bytes of repro source a cold ``scenario run paper-baseline --seeds 4``
#: may load: the measured total (276,443 bytes in 43 modules) plus 5%.
#: Without bytecode caches every byte is compiled on every call.
SOURCE_BUDGET = 290_265

#: Loaded by no cold entry point: ``dataclasses`` and the ``inspect``
#: chain it pulls in (``Record`` builds its methods without ``exec``).
RECORD_MACHINERY = ("dataclasses", "inspect")

#: Loaded by no cold ``scenario run``: the topology digest is computed
#: only for keys that leave the process (store, checkpoints).
DIGEST = ("hashlib",)

#: What the distributed setup (the overhead experiment) executes.
SETUP_PATH = ("repro.das.fast_setup", "repro.slp.distributed")

#: The legacy setup engine: the node processes, their wire messages and
#: the event heap they run on.  Only ``--legacy-setup-kernel`` runs it.
LEGACY_SETUP = (
    "repro.das.process",
    "repro.das.messages",
    "repro.slp.process",
    "repro.slp.messages",
    "repro.simulator.process",
    "repro.simulator.channel",
    "repro.simulator.event",
    "repro.simulator.event_queue",
)

#: Bytes of repro source a cold :data:`SERIAL_OVERHEAD` run may load:
#: the measured total (178,469 bytes in 29 modules) plus 5%.
OVERHEAD_SOURCE_BUDGET = 187_392

#: What a remote worker process imports before its first claim.
REMOTE_WORKER = "from repro.service import ShardWorker, worker_main"

#: Bytes of repro source :data:`REMOTE_WORKER` may load: the measured
#: total (322,033 bytes in 47 modules) plus 5%.
WORKER_SOURCE_BUDGET = 338_134

#: The operational engine and the code that drives it: the overhead
#: experiment executes none of it.
OPERATIONAL = (
    "repro.app",
    "repro.attacker",
    "repro.scenarios",
    "repro.experiments.runner",
    "repro.das.centralized",
    "repro.slp.refine",
    "repro.slp.search",
)

#: The pool and its supervision: a serial overhead run needs none of it.
POOL = (
    "repro.experiments.pool",
    "repro.experiments.resilience",
    "repro.experiments.faults",
    "concurrent.futures",
)

#: What a pooled sweep forks its workers with: the shard board, the
#: fleet and the pull loop with its pipe transport.  A serial sweep
#: loads none of it (``repro.service`` is in :data:`DEFERRED`).
POOL_FORK = ("repro.service.fleet", "repro.service.pull", "repro.service.transport")

#: The chaos harness and the futures machinery: nothing loads them
#: unless a fault plan is set.
CHAOS = ("repro.experiments.faults", "concurrent.futures")

#: A small overhead sweep, serial and on two workers (the pool forks).
SERIAL_OVERHEAD = (
    "from repro.experiments import measure_setup_overhead\n"
    "from repro.topology import GridTopology\n"
    "measure_setup_overhead(GridTopology(5), seeds=(0, 1), setup_periods=12)"
)
POOLED_OVERHEAD = SERIAL_OVERHEAD[:-1] + ", workers=2)"

#: A pooled SLP sweep: the workers build every schedule, so the parent
#: holds the SLP pipeline only if it imported it before forking.
POOLED_SLP = (
    "from repro.experiments import ExperimentConfig, ExperimentRunner, SeedPool\n"
    "from repro.topology import GridTopology\n"
    "runner = ExperimentRunner(GridTopology(5), pool=SeedPool(workers=2))\n"
    "runner.run(ExperimentConfig(algorithm='slp', repeats=2))"
)

#: Every package root whose public names resolve lazily.
LAZY_ROOTS = (
    "repro",
    "repro.analysis",
    "repro.app",
    "repro.attacker",
    "repro.core",
    "repro.das",
    "repro.experiments",
    "repro.mac",
    "repro.metrics",
    "repro.scenarios",
    "repro.service",
    "repro.simulator",
    "repro.slp",
    "repro.storage",
    "repro.telemetry",
    "repro.topology",
    "repro.verification",
)

CLI_CHILD = """
import json, runpy, sys
sys.argv = ["repro.cli"] + {argv!r}
try:
    runpy.run_module("repro.cli", run_name="__main__")
except SystemExit as exc:
    if exc.code not in {codes!r}:
        raise
print(json.dumps(sorted(sys.modules)))
"""


#: Prepended to :data:`CLI_CHILD` for a long-running subcommand: once
#: the subcommand has installed its SIGTERM handler, ask it to drain.
STOP_WHEN_SERVING = """
import os, signal, threading, time
def _stop_when_serving():
    while signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGTERM)
threading.Thread(target=_stop_when_serving, daemon=True).start()
"""


def _child_modules(code: str) -> Tuple[str, ...]:
    """The modules loaded by a fresh interpreter running ``code``,
    which must print ``sorted(sys.modules)`` as its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    flags = ["-X", "importtime"] if "importtime" in sys._xoptions else []
    result = subprocess.run(
        [sys.executable, *flags, "-c", code],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0
    return tuple(json.loads(result.stdout.strip().splitlines()[-1]))


def _modules_after(code: str) -> Tuple[str, ...]:
    """The modules loaded by a fresh interpreter after running ``code``."""
    return _child_modules(
        f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    )


@lru_cache(maxsize=None)
def _cli_modules(argv: Tuple[str, ...], codes: Tuple[int, ...] = (0,)) -> Tuple[str, ...]:
    """The modules a cold ``repro-slp-das <argv>`` call loaded."""
    return _child_modules(CLI_CHILD.format(argv=list(argv), codes=codes))


def _scenario_run(name: str) -> Tuple[str, ...]:
    return _cli_modules(("scenario", "run", name, "--seeds", "2", "--quiet"))


def _loaded(modules: Tuple[str, ...], names: Tuple[str, ...]) -> List[str]:
    """The entries of ``names`` that ``modules`` holds, or holds a
    submodule of."""
    return [
        name
        for name in names
        if any(m == name or m.startswith(name + ".") for m in modules)
    ]


@pytest.fixture(scope="module")
def cold_run_modules():
    """The modules a cold ``scenario run`` loaded."""
    return _scenario_run("paper-baseline")


def test_scenario_run_imports_no_numpy_or_networkx(cold_run_modules):
    assert _loaded(cold_run_modules, HEAVY) == []


def test_scenario_run_imports_no_pool_store_or_socket(cold_run_modules):
    assert _loaded(cold_run_modules, MACHINERY) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("paper-baseline", "--seeds", "2"),
        ("paper-baseline-slp", "--seeds", "2"),
        # 4 x 121 node-runs is below MIN_NODE_RUNS_FOR_POOL: the worker
        # policy runs the sweep serially, so no pool code may load.
        ("paper-baseline", "--seeds", "4", "--workers", "2"),
    ],
    ids=["paper-baseline", "paper-baseline-slp", "workers-2-run-serially"],
)
def test_scenario_run_imports_only_the_run_path(argv):
    modules = _cli_modules(("scenario", "run", *argv, "--quiet"))
    assert _loaded(modules, DEFERRED) == []
    assert _loaded(modules, RUN_PATH) == list(RUN_PATH)


def test_protectionless_run_loads_no_legacy_engine_or_slp(cold_run_modules):
    assert _loaded(cold_run_modules, LEGACY_ENGINE + ("repro.slp",)) == []


def test_slp_run_loads_the_slp_pipeline_but_no_legacy_engine():
    modules = _scenario_run("paper-baseline-slp")
    assert _loaded(modules, SLP_PATH) == list(SLP_PATH)
    assert _loaded(modules, LEGACY_ENGINE) == []


def test_legacy_kernel_loads_the_legacy_engine():
    argv = ("paper-baseline", "--seeds", "2", "--quiet", "--legacy-kernel")
    modules = _cli_modules(("scenario", "run", *argv))
    assert _loaded(modules, LEGACY_ENGINE) == list(LEGACY_ENGINE)


def _source_size(module: str) -> int:
    """Bytes of source behind a repro module name."""
    path = SRC.joinpath(*module.split("."))
    source = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return source.stat().st_size


def _assert_source_within(modules: Tuple[str, ...], budget: int, what: str) -> None:
    sizes = sorted(
        (_source_size(m), m) for m in modules if m.split(".")[0] == "repro"
    )
    total = sum(size for size, _ in sizes)
    assert total <= budget, (
        f"{what} loads {total} bytes of repro source (budget {budget}):\n"
        + "\n".join(f"{size:>8} {module}" for size, module in sizes)
    )


def test_cold_run_source_stays_within_budget():
    modules = _cli_modules(
        ("scenario", "run", "paper-baseline", "--seeds", "4", "--quiet")
    )
    _assert_source_within(modules, SOURCE_BUDGET, "a cold protectionless run")


@pytest.mark.parametrize("scenario", ["paper-baseline", "paper-baseline-slp"])
def test_cold_run_loads_no_record_machinery_or_digest(scenario):
    modules = _cli_modules(("scenario", "run", scenario, "--seeds", "4", "--quiet"))
    assert _loaded(modules, RECORD_MACHINERY + DIGEST) == []


@pytest.mark.parametrize(
    "code", [REMOTE_WORKER, SERIAL_OVERHEAD], ids=["remote-worker", "serial-overhead"]
)
def test_worker_and_overhead_load_no_record_machinery(code):
    assert _loaded(_modules_after(code), RECORD_MACHINERY) == []


def test_remote_worker_source_stays_within_budget():
    _assert_source_within(
        _modules_after(REMOTE_WORKER), WORKER_SOURCE_BUDGET, "a remote worker"
    )


def test_cold_overhead_source_stays_within_budget():
    modules = _modules_after(SERIAL_OVERHEAD)
    _assert_source_within(
        modules, OVERHEAD_SOURCE_BUDGET, "a cold serial overhead run"
    )


def test_import_cli_loads_only_the_parser_module():
    modules = _modules_after("import repro.cli")
    assert [m for m in modules if m.split(".")[0] == "repro"] == [
        "repro",
        "repro.cli",
        "repro.errors",
    ]


def test_service_status_loads_no_run_path():
    # Port 9 (discard) on loopback refuses the connection: exit 2.
    modules = _cli_modules(
        ("service", "status", "--url", "http://127.0.0.1:9", "job"), codes=(2,)
    )
    assert "repro.service.client" in modules
    assert _loaded(
        modules,
        ("repro.app", "repro.simulator", "repro.das", "repro.experiments.runner"),
    ) == []
    # Its retries wait on the RetryPolicy alone, not the sweep machinery.
    assert "repro.experiments.retry" in modules
    assert _loaded(modules, ("repro.experiments.resilience",)) == []


@pytest.mark.parametrize(
    "code, expected",
    [
        ("from repro.service import SweepService", RUN_PATH + ("repro.scenarios.spec",)),
        (REMOTE_WORKER, RUN_PATH + ("repro.scenarios.spec",)),
        (
            "from repro.experiments import ExperimentRunner, SeedPool\n"
            "from repro.topology import GridTopology\n"
            "ExperimentRunner(GridTopology(3), pool=SeedPool(workers=2))",
            RUN_PATH,
        ),
        (POOLED_SLP, RUN_PATH + SLP_PATH + POOL_FORK),
        ("import repro.experiments.overhead", SETUP_PATH),
        (POOLED_OVERHEAD, SETUP_PATH + ("repro.experiments.pool",) + POOL_FORK),
    ],
    ids=["service", "worker", "pool", "pool-slp", "overhead", "overhead-pooled"],
)
def test_forking_processes_load_the_run_path_before_forking(code, expected):
    modules = _modules_after(code)
    assert _loaded(modules, expected) == list(expected)


@pytest.mark.parametrize(
    "code",
    ["import repro.service.worker", POOLED_OVERHEAD, POOLED_SLP],
    ids=["worker", "overhead-pooled", "pool-slp"],
)
def test_no_fault_plan_loads_no_chaos_harness(code):
    assert FAULT_PLAN_ENV not in os.environ
    assert _loaded(_modules_after(code), CHAOS) == []


@pytest.mark.parametrize(
    "code, absent",
    [
        ("import repro.experiments.overhead", OPERATIONAL),
        (SERIAL_OVERHEAD, OPERATIONAL + POOL),
        (POOLED_OVERHEAD, OPERATIONAL),
    ],
    ids=["import", "serial", "pooled"],
)
def test_overhead_loads_no_operational_engine(code, absent):
    assert _loaded(_modules_after(code), absent) == []


@pytest.mark.parametrize(
    "code",
    ["import repro.experiments.overhead", SERIAL_OVERHEAD, POOLED_OVERHEAD],
    ids=["import", "serial", "pooled"],
)
def test_overhead_loads_no_legacy_setup_engine(code):
    assert _loaded(_modules_after(code), LEGACY_SETUP) == []


def test_legacy_setup_kernel_loads_the_legacy_setup_engine():
    argv = ("overhead", "--size", "11", "--seeds", "2", "--legacy-setup-kernel")
    assert _loaded(_cli_modules(argv), LEGACY_SETUP) == list(LEGACY_SETUP)


def test_every_public_name_resolves_and_is_listed():
    for root in LAZY_ROOTS:
        package = importlib.import_module(root)
        listing = dir(package)
        for name in package.__all__:
            assert getattr(package, name) is not None, (root, name)
            assert name in listing, (root, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")


def _imported_names(path: Path) -> List[str]:
    """Every module name an ``import`` statement in ``path`` names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append(node.module)
    return names


def test_no_service_module_imports_sqlite3():
    service = SRC / "repro" / "service"
    offenders = [
        path.name
        for path in sorted(service.glob("*.py"))
        if any(name.split(".")[0] == "sqlite3" for name in _imported_names(path))
    ]
    assert offenders == []


def test_cold_service_start_loads_no_sqlite3(tmp_path):
    argv = ["service", "start", "--data-dir", str(tmp_path / "svc"), "--port", "0"]
    modules = _child_modules(
        STOP_WHEN_SERVING + CLI_CHILD.format(argv=argv, codes=(0,))
    )
    assert "repro.service.store" in modules
    assert _loaded(modules, ("sqlite3",)) == []
    assert (tmp_path / "svc" / "jobs.jsonl").exists()
    assert not (tmp_path / "svc" / "jobs.sqlite").exists()


def test_cold_worker_start_loads_no_sqlite3():
    # Nothing listens on port 9: both claims fail and the idle worker exits.
    modules = _cli_modules(
        (
            "worker", "start", "--connect", "http://127.0.0.1:9",
            "--idle-exit", "0", "--poll", "0.01", "--quiet",
        )
    )
    assert "repro.service.worker" in modules
    assert _loaded(modules, ("sqlite3",)) == []
