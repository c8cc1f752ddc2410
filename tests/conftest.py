"""Shared fixtures: small topologies and schedules used across the suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import Schedule
from repro.das import centralized_das_schedule
from repro.topology import GridTopology, LineTopology, RingTopology, Topology

#: CI's deep run of the generated differential tests
#: (``pytest --hypothesis-profile=deep``): many more examples, drawn at
#: random and shrunk on failure (see ``differential.py``).  It reports
#: the first failure found, shrunk, rather than an exception group of
#: every distinct one: shrinking several at once multiplies the time and
#: memory the job takes.
settings.register_profile(
    "deep", max_examples=2000, deadline=None, report_multiple_bugs=False
)


@pytest.fixture
def line5() -> LineTopology:
    """A 5-node line: 0(source) - 1 - 2 - 3 - 4(sink)."""
    return LineTopology(5)


@pytest.fixture
def ring8() -> RingTopology:
    """An 8-node ring, sink at 0, source antipodal at 4."""
    return RingTopology(8)


@pytest.fixture
def grid5() -> GridTopology:
    """A 5x5 grid with the paper's role placement (source 0, sink centre)."""
    return GridTopology(5)


@pytest.fixture
def grid7() -> GridTopology:
    """A 7x7 grid — big enough for search distance 3 redirections."""
    return GridTopology(7)


@pytest.fixture
def tee() -> Topology:
    """A 7-node tee: two branches joining into a stem toward the sink.

    ::

        0   2
         \\ /
          1
          |
          3 - 4 - 5(sink)
          |
          6
    """
    edges = [(0, 1), (2, 1), (1, 3), (3, 4), (4, 5), (3, 6)]
    return Topology.from_edges(edges, sink=5, source=0, name="tee")


@pytest.fixture
def grid5_schedule(grid5: GridTopology) -> Schedule:
    """A deterministic (jitter-free) strong DAS schedule on grid5."""
    return centralized_das_schedule(grid5, seed=None, jitter=False)


@pytest.fixture
def line5_schedule(line5: LineTopology) -> Schedule:
    """The canonical line schedule: slots descend away from the sink."""
    return centralized_das_schedule(line5, seed=None, jitter=False)


@pytest.fixture
def pooled_sweeps(monkeypatch) -> list:
    """Lift the worker policy's small-sweep threshold and record the
    worker count of every pooled sweep, so a test that proves the pool
    path bit-identical can assert that its sweeps really forked (the
    policy would run a few-seed sweep serially)."""
    from repro.experiments import options
    from repro.experiments.pool import SeedPool

    monkeypatch.setattr(options, "MIN_NODE_RUNS_FOR_POOL", 0)
    widths: list = []
    map_seeds = SeedPool.map_seeds

    def recorded(self, *args, **kwargs):
        widths.append(self.workers)
        return map_seeds(self, *args, **kwargs)

    monkeypatch.setattr(SeedPool, "map_seeds", recorded)
    return widths


@pytest.fixture
def setup_engines(monkeypatch) -> dict:
    """The final engine state of every distributed setup run in the test.

    Maps each run's simulator (``result.simulator``) to what its engine
    left behind: the fast kernel's
    :class:`~repro.das.fast_setup.FastSetupState`, or the process
    engine's ``{node: process}``.  The fast path builds no process
    objects, so this is how tests see its per-node state.
    """
    import repro.das.fast_setup as fast_setup
    import repro.das.process as process
    import repro.das.protocol as protocol
    import repro.slp.distributed as distributed

    engines = {}
    run_fast_setup = fast_setup.run_fast_setup
    run_process_engine = process.run_process_engine

    def fast(sim, *args, **kwargs):
        engines[sim] = run_fast_setup(sim, *args, **kwargs)
        return engines[sim]

    def legacy(sim, *args, **kwargs):
        engines[sim] = run_process_engine(sim, *args, **kwargs)
        return engines[sim]

    monkeypatch.setattr(protocol, "run_fast_setup", fast)
    monkeypatch.setattr(distributed, "run_fast_setup", fast)
    monkeypatch.setattr(process, "run_process_engine", legacy)
    return engines
