"""Experiment ``alg1``: the cost and verdicts of VerifySchedule.

Benchmarks the decision procedure on the paper's grids and checks the
model-checking contract: a counterexample for capturable schedules, a
certificate otherwise, and agreement with the literal trace enumeration.
"""

from conftest import emit

from repro.attacker import paper_attacker
from repro.core import safety_period
from repro.das import centralized_das_schedule
from repro.experiments import PAPER
from repro.slp import SlpParameters, build_slp_schedule
from repro.topology import paper_grid
from repro.verification import generate_attacker_traces, verify_schedule


def test_verify_schedule_cost_11():
    grid = paper_grid(11)
    delta = safety_period(grid, PAPER.frame().period_length).periods
    schedule = centralized_das_schedule(grid, seed=0)
    result = verify_schedule(grid, schedule, delta)
    assert result.states_explored > 0


def test_verify_schedule_cost_21():
    grid = paper_grid(21)
    delta = safety_period(grid, PAPER.frame().period_length).periods
    schedule = centralized_das_schedule(grid, seed=0)
    result = verify_schedule(grid, schedule, delta)
    assert result.states_explored > 0


def test_verdicts_and_counterexamples():
    grid = paper_grid(11)
    delta = safety_period(grid, PAPER.frame().period_length).periods
    verify_schedule(
        grid, centralized_das_schedule(grid, seed=0), delta
    )
    lines = []
    for seed in range(10):
        base = centralized_das_schedule(grid, seed=seed)
        refined = build_slp_schedule(
            grid, SlpParameters(3), seed=seed, baseline=base
        ).schedule
        vb = verify_schedule(grid, base, delta)
        vs = verify_schedule(grid, refined, delta)
        lines.append(
            f"seed {seed}: protectionless="
            f"{'aware' if vb.slp_aware else f'captured@{vb.periods}'}  "
            f"slp={'aware' if vs.slp_aware else f'captured@{vs.periods}'}"
        )
        if not vb.slp_aware:
            assert vb.counterexample[0] == grid.sink
            assert vb.counterexample[-1] == grid.source
    emit(f"Algorithm 1 verdicts (delta = {delta} periods)", "\n".join(lines))


def test_trace_enumeration_cost():
    """The literal GenerateAllAttackerTraces on the 11x11 grid."""
    grid = paper_grid(11)
    schedule = centralized_das_schedule(grid, seed=0)

    def enumerate_traces():
        return sum(
            1
            for _ in generate_attacker_traces(
                grid, schedule, paper_attacker(), start=grid.sink, max_periods=17
            )
        )

    assert enumerate_traces() >= 1
