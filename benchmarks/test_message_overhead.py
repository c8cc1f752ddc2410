"""Experiment ``overhead``: §I/§VII — "negligible message overhead".

Runs the full distributed protectionless and SLP setups on the 11x11
grid and counts every broadcast.  The SLP extra is a handful of SEARCH
and CHANGE messages plus a short burst of update disseminations.
"""

from conftest import BENCH_SEEDS, emit

from repro.das import DasProtocolConfig, run_das_setup
from repro.experiments import format_overhead, measure_setup_overhead
from repro.topology import paper_grid

#: Reduced from the paper's MSP = 80 to keep the bench quick; overhead
#: ratios are insensitive to the tail of quiet setup periods.
SETUP_PERIODS = 50


def test_setup_overhead():
    grid = paper_grid(11)
    measurement = measure_setup_overhead(
        grid,
        seeds=BENCH_SEEDS,
        search_distance=3,
        setup_periods=SETUP_PERIODS,
        refinement_periods=20,
    )
    emit("Setup message overhead (regenerated)", format_overhead(measurement))

    assert measurement.mean_extra_messages >= 0
    # "negligible": well under a quarter of the baseline volume even at
    # this reduced setup length (the paper's MSP=80 dilutes it further).
    assert measurement.mean_overhead_percent < 25.0
    for per_seed in measurement.per_seed:
        assert per_seed.search_messages < 50
        assert per_seed.change_messages < 50

    # Benchmark the baseline setup itself (the dominant cost).
    run_das_setup(
        grid, config=DasProtocolConfig(setup_periods=SETUP_PERIODS), seed=0
    )
