"""The overhead experiment's Phase 1 shortcut.

``measure_setup_overhead`` simulates only the SLP setup per seed and
reads the protectionless baseline off it at the Phase 1 -> Phase 2
boundary (round ``MSP``).  That is sound only because an SLP run's first
``MSP`` rounds are, draw for draw, the protectionless run of the same
seed.  These tests pin that equivalence against real ``run_das_setup``
runs on both setup engines, the measurement against the two-run
reference it replaced, and the error behaviour of seeds whose Phase 1
fails.
"""

from __future__ import annotations

import gc

import pytest

from repro.das import (
    DasNodeProcess,
    DasProtocolConfig,
    fast_setup_supported,
    run_das_setup,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.experiments import PAPER, format_overhead, measure_setup_overhead
from repro.experiments.overhead import _SetupComparison
from repro.metrics import MessageOverhead
from repro.simulator import SEND, BernoulliNoise, CasinoLabNoise, IdealNoise
from repro.slp import SlpProtocolConfig, run_slp_setup
from repro.topology import GridTopology, paper_grid

NOISES = {
    "ideal": lambda: IdealNoise(),
    "bernoulli": lambda: BernoulliNoise(0.1),
    "casino": lambda: CasinoLabNoise(),
}

KERNELS = ("fast", "legacy")


def slp_config(topology, das: DasProtocolConfig, search_distance: int = 3):
    return SlpProtocolConfig(
        das=das,
        search_distance=search_distance,
        change_length=PAPER.change_length(topology, search_distance),
        refinement_periods=8,
    )


def das_reference(topology, das, seed, noise, kernel):
    """A real protectionless run: (SENDs, ids left without a slot).

    Read off the processes, so it works whether or not
    ``run_das_setup`` raises for the unassigned nodes.
    """
    processes = []

    def factory(node, is_sink, config):
        process = DasNodeProcess(node, is_sink=is_sink, config=config)
        processes.append(process)
        return process

    try:
        run_das_setup(
            topology, das, seed=seed, noise=noise, process_factory=factory,
            setup_kernel=kernel,
        )
    except ProtocolError:
        pass
    sends = processes[0].sim.trace.count(SEND)
    unassigned = tuple(sorted(p.node for p in processes if not p.assigned))
    return sends, unassigned


def assert_prefix_matches(topology, das, seed, noise_name, kernel):
    slp = run_slp_setup(
        topology, slp_config(topology, das), seed=seed,
        noise=NOISES[noise_name](), setup_kernel=kernel,
    )
    sends, unassigned = das_reference(
        topology, das, seed, NOISES[noise_name](), kernel
    )
    assert slp.phase1_messages == sends
    assert slp.phase1_unassigned == unassigned
    assert slp.messages_sent > slp.phase1_messages


class TestPhase1Prefix:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    @pytest.mark.parametrize("size", (11, 15))
    def test_prefix_is_the_protectionless_run(self, size, noise_name, kernel):
        topology = paper_grid(size)
        das = DasProtocolConfig(setup_periods=24)
        for seed in (0, 1, 2):
            assert_prefix_matches(topology, das, seed, noise_name, kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_unassigned_nodes_match(self, noise_name, kernel):
        """A Phase 1 too short to assign everyone: the same nodes are left
        out in both runs (refinement still completes the SLP run)."""
        topology = paper_grid(11)
        das = DasProtocolConfig(setup_periods=13)
        slp = run_slp_setup(
            topology, slp_config(topology, das), seed=0,
            noise=NOISES[noise_name](), setup_kernel=kernel,
        )
        assert slp.phase1_unassigned, "the config must leave Phase 1 incomplete"
        assert_prefix_matches(topology, das, 0, noise_name, kernel)

    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_jitter_fraction_one_falls_back_to_legacy(self, noise_name):
        """Broadcasts may land past the round boundary here, so the fast
        kernel refuses the geometry; the legacy heap run must still cut
        Phase 1 at the sink's startS."""
        topology = paper_grid(11)
        das = DasProtocolConfig(setup_periods=24, jitter_fraction=1.0)
        cfg = slp_config(topology, das)
        assert not fast_setup_supported(
            das, 1e-4, cfg.search_distance, cfg.change_length
        )
        for seed in (0, 1, 2):
            assert_prefix_matches(topology, das, seed, noise_name, "fast")


def two_run_reference(topology, seeds, setup_periods, noise=None):
    """The measurement as it was: a protectionless and an SLP run per seed."""
    reference = []
    for seed in seeds:
        das = PAPER.das_config(setup_periods=setup_periods)
        baseline = run_das_setup(topology, das, seed=seed, noise=noise)
        slp = run_slp_setup(
            topology,
            SlpProtocolConfig(
                das=das,
                search_distance=3,
                change_length=PAPER.change_length(topology, 3),
                refinement_periods=20,
            ),
            seed=seed,
            noise=noise,
        )
        reference.append(
            MessageOverhead(
                baseline_messages=baseline.messages_sent,
                slp_messages=slp.messages_sent,
                search_messages=slp.search_messages,
                change_messages=slp.change_messages,
            )
        )
    return tuple(reference)


class TestMeasurement:
    @pytest.mark.parametrize("workers", (None, 2))
    def test_matches_two_run_reference(self, workers):
        topology = paper_grid(11)
        seeds = range(16, 20)
        measured = measure_setup_overhead(
            topology, seeds=seeds, setup_periods=30, workers=workers
        )
        assert measured.seeds == tuple(seeds)
        assert measured.per_seed == two_run_reference(topology, seeds, 30)

    def test_matches_two_run_reference_under_noise(self):
        topology = paper_grid(11)
        measured = measure_setup_overhead(
            topology, seeds=(3, 4), setup_periods=30, noise=CasinoLabNoise()
        )
        assert measured.per_seed == two_run_reference(
            topology, (3, 4), 30, noise=CasinoLabNoise()
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_seed_frees_its_simulator_by_refcount(self, kernel):
        measure = _SetupComparison(paper_grid(11), 3, 30, 20, None, PAPER, kernel)
        measure(0)  # warm lazy caches
        gc.collect()
        gc.disable()
        try:
            measure(1)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPhase1FailureParity:
    """A seed raises exactly when the two-run measurement raised, with
    ``run_das_setup``'s error whenever Phase 1 leaves nodes slotless."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "size, setup_periods, slp_outcome",
        [
            # Refinement assigns the stragglers: the SLP run succeeds.
            (5, 8, None),
            # Decoys recruited among unassigned nodes break the SLP run.
            (11, 10, Exception),
            # The sink has no children yet: the SLP run fails on startS.
            (5, 5, ProtocolError),
        ],
    )
    def test_short_phase1_raises_the_protectionless_error(
        self, size, setup_periods, slp_outcome, kernel
    ):
        topology = GridTopology(size)
        das = PAPER.das_config(setup_periods=setup_periods)
        slp_cfg = SlpProtocolConfig(
            das=das,
            search_distance=2,
            change_length=PAPER.change_length(topology, 2),
            refinement_periods=20,
        )
        if slp_outcome is None:
            run_slp_setup(topology, slp_cfg, seed=0, setup_kernel=kernel)
        else:
            with pytest.raises(slp_outcome):
                run_slp_setup(topology, slp_cfg, seed=0, setup_kernel=kernel)
        with pytest.raises(ProtocolError) as expected:
            run_das_setup(topology, das, seed=0, setup_kernel=kernel)
        with pytest.raises(ProtocolError) as measured:
            measure_setup_overhead(
                topology, seeds=(0,), search_distance=2,
                setup_periods=setup_periods, setup_kernel=kernel,
            )
        assert str(measured.value) == str(expected.value)


@pytest.mark.parametrize("workers", (None, 2))
def test_empty_seed_list_rejected(workers):
    with pytest.raises(ConfigurationError):
        measure_setup_overhead(paper_grid(11), seeds=(), workers=workers)


def test_format_prints_the_measured_seeds():
    measurement = measure_setup_overhead(
        paper_grid(11), seeds=range(16, 18), setup_periods=30
    )
    rows = format_overhead(measurement).splitlines()[4:6]
    assert [row.split()[0] for row in rows] == ["16", "17"]
