"""Oracles for the per-seed work a sweep repeats.

* The slot-repair fixpoint of :func:`repro.das.centralized_das_schedule`
  re-checks only the nodes whose read slots moved.  The full-pass
  fixpoint it replaced is kept here, verbatim in behaviour, and both
  must return the same slots on every registered scenario's topology
  and on generated unit-disk graphs.
* A fast run compiles its lane tables from the topology's neighbour
  rows, which the topology keeps between runs.  Back-to-back runs on
  one topology must equal runs on a freshly built copy, under every
  noise model and under perturbations that recompile lanes mid-run.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import pytest
from differential import differential_settings
from hypothesis import given
from hypothesis import strategies as st

import repro.das.centralized as centralized
from repro.app import DutyCycle, NodeDeath, run_operational_phase
from repro.das import centralized_das_schedule
from repro.errors import ProtocolError
from repro.experiments import ExperimentRunner
from repro.records import replace
from repro.scenarios import get_scenario, scenario_names
from repro.simulator import BernoulliNoise, CasinoLabNoise, IdealNoise
from repro.topology import GridTopology, Topology


def full_pass_repair(topology, slots, priority, max_passes):
    """The full-pass fixpoint: every pass re-checks every ordering pair
    and every collision pair."""
    tables = topology.repair_tables()
    nodes, spc = tables.nodes, tables.spc
    collision_pairs, hop = tables.collision_pairs, tables.hop
    for _ in range(max_passes):
        changed = False
        for n in nodes:
            slot_n = slots[n]
            for m in spc[n]:
                if slot_n >= slots[m]:
                    slot_n = slots[m] - 1
                    changed = True
            if slot_n != slots[n]:
                slots[n] = slot_n
        for n in nodes:
            for m in collision_pairs[n]:
                if slots[n] == slots[m]:
                    key_n = (hop[n], priority[n], n)
                    key_m = (hop[m], priority[m], m)
                    loser = m if key_m > key_n else n
                    slots[loser] -= 1
                    changed = True
        if not changed:
            return
    raise ProtocolError(f"slot repair did not converge within {max_passes} passes")


@contextmanager
def _full_passes():
    """Build schedules with the full-pass oracle inside the block."""
    incremental = centralized._repair
    centralized._repair = full_pass_repair
    try:
        yield
    finally:
        centralized._repair = incremental


def _both(topology, **kwargs):
    """The schedule built with the incremental fixpoint, then with the
    full-pass oracle."""
    incremental = centralized_das_schedule(topology, **kwargs)
    with _full_passes():
        oracle = centralized_das_schedule(topology, **kwargs)
    return incremental, oracle


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_incremental_repair_matches_full_passes_on_scenarios(name):
    topology = get_scenario(name).build_topology()
    for seed in (0, 1, 7):
        incremental, oracle = _both(topology, seed=seed)
        assert incremental.slots() == oracle.slots()
        assert incremental.parents() == oracle.parents()
    incremental, oracle = _both(topology, jitter=False)
    assert incremental.slots() == oracle.slots()


def _unit_disk_edges(points, radius):
    """The unit-disk links among ``points`` (node i at points[i])."""
    edges = []
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if math.dist(points[a], points[b]) <= radius:
                edges.append((a, b))
    return edges


def _component(edges, start):
    """The edges of the connected component holding ``start``."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [m for n in frontier for m in adj.get(n, ()) if m not in seen]
        seen.update(frontier)
    return [(a, b) for a, b in edges if a in seen]


@given(
    points=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=3,
        max_size=40,
        unique=True,
    ),
    radius=st.sampled_from((1.5, 2.5, 3.5)),
    seed=st.integers(0, 2**31 - 1),
)
@differential_settings(max_examples=200)
def test_incremental_repair_matches_full_passes_on_unit_disk_graphs(
    points, radius, seed
):
    edges = _component(_unit_disk_edges(points, radius), 0)
    if not edges:
        return  # node 0 is isolated: no network to schedule
    topology = Topology.from_edges(edges, sink=0)
    incremental, oracle = _both(topology, seed=seed)
    assert incremental.slots() == oracle.slots()


NOISES = {
    "ideal": IdealNoise,
    "bernoulli": lambda: BernoulliNoise(0.1),
    "casino": CasinoLabNoise,
}


@pytest.mark.parametrize("noise", sorted(NOISES))
@pytest.mark.parametrize("scenario", ["paper-baseline", "churn-10pct", "duty-cycle"])
def test_back_to_back_fast_runs_equal_fresh_runs(scenario, noise):
    """One topology serving several seeds' lane tables gives the same
    results as a fresh topology per seed.  The scenario's perturbations
    recompile lanes from the live radio mid-run."""
    spec = get_scenario(scenario)
    shared = spec.build_topology()
    config = replace(spec.to_config(repeats=3), noise=NOISES[noise]())
    reused = ExperimentRunner(shared)
    for seed in range(3):
        fresh = ExperimentRunner(spec.build_topology())
        assert reused.run_once(config, seed) == fresh.run_once(config, seed)


def test_back_to_back_runs_with_hand_built_perturbations():
    """Deaths and duty cycles on one grid, run after run, match runs on
    a freshly built grid under every noise model."""
    shared = GridTopology(7)
    victims = (9, 10, 23)
    perturbations = (
        NodeDeath(period=2, nodes=victims),
        DutyCycle(nodes=(30, 31), cycle_length=3, sleep_for=1),
    )
    for make_noise in NOISES.values():
        for seed in range(3):
            runs = []
            for topology in (shared, GridTopology(7)):
                schedule = centralized_das_schedule(topology, seed=seed)
                runs.append(
                    run_operational_phase(
                        topology,
                        schedule,
                        seed=seed,
                        noise=make_noise(),
                        perturbations=perturbations,
                    )
                )
            assert runs[0] == runs[1]
