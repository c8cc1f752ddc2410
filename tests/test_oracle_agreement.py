"""Three oracles decide capture for the paper's attacker, and they agree.

For the ``(1, 0, 1, s0, first-heard)`` attacker under ideal links, the
verifier (Algorithm 1, :func:`verify_schedule`), the gradient
predictor (:func:`predicts_capture`) and the simulation
(:func:`run_operational_phase`, on either kernel) must give the same
verdict on every schedule.  The verifier and the predictor stand in
for simulation in the headline test and the verifier tables, so this
property is what licenses them.

On a capture the simulated attacker path, with repeated locations
removed, is the verifier's counterexample.  The two count periods
differently: the verifier's ``periods`` is a count, the simulation's
``capture_period`` an index, so ``periods == capture_period + 1``.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import predicts_capture
from repro.app import FAST_KERNEL, LEGACY_KERNEL, run_operational_phase
from repro.das import centralized_das_schedule
from repro.errors import ProtocolError
from repro.slp import SlpParameters, build_slp_schedule
from repro.verification import verify_schedule

from differential import differential_settings, unit_disk_topologies

#: The SLP search distances checked on every generated network.
SEARCH_DISTANCES = (2, 3)


def _distinct_locations(path):
    """``path`` with each run of one repeated location kept once."""
    return tuple(node for i, node in enumerate(path) if i == 0 or path[i - 1] != node)


def _schedules(topology, schedule_seed):
    """The protectionless schedule, then the SLP schedule at each
    search distance the SLP build accepts on this network (it refuses
    one without a spare potential parent on the search's route)."""
    baseline = centralized_das_schedule(topology, seed=schedule_seed)
    yield baseline
    for search_distance in SEARCH_DISTANCES:
        try:
            yield build_slp_schedule(
                topology,
                SlpParameters(search_distance=search_distance),
                seed=schedule_seed,
                baseline=baseline,
            ).schedule
        except ProtocolError:
            pass


@given(
    topology=unit_disk_topologies(),
    schedule_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**31 - 1),
)
@differential_settings(max_examples=300)
def test_verifier_predictor_and_simulation_agree(topology, schedule_seed, seed):
    for schedule in _schedules(topology, schedule_seed):
        runs = [
            run_operational_phase(topology, schedule, seed=seed, kernel=kernel)
            for kernel in (FAST_KERNEL, LEGACY_KERNEL)
        ]
        delta = runs[0].safety_periods
        verdict = verify_schedule(topology, schedule, delta)
        captured = not verdict.slp_aware
        assert predicts_capture(topology, schedule, delta) == captured
        for run in runs:
            assert run.captured == captured
            if captured:
                assert _distinct_locations(run.attacker_path) == verdict.counterexample
                assert verdict.periods == run.capture_period + 1
