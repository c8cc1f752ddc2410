"""A cold ``scenario run`` must not import numpy or networkx, nor the
process-pool, SQLite or socket machinery.

The scenario path needs none of them: numpy and networkx each cost
~0.1 s of every cold CLI call and remote worker start, and a serial
sweep builds no pool, opens no schedule store and talks to no service.
The child interpreter runs the CLI under ``runpy`` and reports which of
these modules ended up loaded.

Run under ``python -X importtime -m pytest -s`` to pass the flag to the
child, whose import profile then lands on stderr.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("numpy", "networkx")

#: Loaded only where a pool is built, a store opened or a service called.
MACHINERY = ("multiprocessing", "sqlite3", "socket")

CHILD = f"""
import json, runpy, sys
sys.argv = ["repro.cli", "scenario", "run", "paper-baseline", "--seeds", "2", "--quiet"]
try:
    runpy.run_module("repro.cli", run_name="__main__")
except SystemExit as exc:
    if exc.code:
        raise
watched = sorted(
    m for m in sys.modules if m.split(".")[0] in {HEAVY + MACHINERY!r}
)
print(json.dumps(watched))
"""


@pytest.fixture(scope="module")
def cold_run_modules():
    """The watched modules a cold ``scenario run`` loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    flags = ["-X", "importtime"] if "importtime" in sys._xoptions else []
    result = subprocess.run(
        [sys.executable, *flags, "-c", CHILD],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_scenario_run_imports_no_numpy_or_networkx(cold_run_modules):
    assert [m for m in cold_run_modules if m.split(".")[0] in HEAVY] == []


def test_scenario_run_imports_no_pool_store_or_socket(cold_run_modules):
    assert [m for m in cold_run_modules if m.split(".")[0] in MACHINERY] == []


def test_every_public_name_resolves_and_is_listed():
    listing = dir(repro)
    for name in repro.__all__:
        assert getattr(repro, name) is not None
        assert name in listing
