"""Experiment ``table1``: regenerate Table I and benchmark the setup it
parameterises (one seeded Phase 1 schedule build under Table I values)."""

from conftest import emit

from repro.das import centralized_das_schedule
from repro.experiments import PAPER, format_table1
from repro.topology import paper_grid


def test_table1_regeneration():
    """Print Table I and benchmark the Table-I-parameterised schedule
    construction on the paper's smallest grid."""
    emit("Table I (regenerated)", format_table1())

    grid = paper_grid(11)
    schedule = centralized_das_schedule(grid, num_slots=PAPER.num_slots, seed=0)
    # Table I consistency: the schedule fits the 100-slot frame and the
    # frame's period equals the source period.
    assert max(schedule.slots().values()) <= PAPER.num_slots
    assert PAPER.frame().period_length == PAPER.source_period
