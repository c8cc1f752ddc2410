"""Differential tests for the setup-phase fast kernel.

The contract: ``run_das_setup`` / ``run_slp_setup`` with the flat-round
setup kernel (:mod:`repro.das.fast_setup`, the default) are
*bit-identical* to the legacy event-heap engine — same RNG stream, same
``Schedule``, same retained trace records and per-kind counters, same
``messages_sent``, same final process state — across topologies, noise
models and seeds, and the kernel falls back to the heap automatically
for protocol subclasses and round geometries it cannot prove safe.
"""

from __future__ import annotations

import pytest

import repro.das.fast_setup as fs
from repro.das import (
    DasNodeProcess,
    DasProtocolConfig,
    fast_setup_compilable,
    fast_setup_supported,
    run_das_setup,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.experiments import PAPER
from repro.simulator import BernoulliNoise, CasinoLabNoise, IdealNoise, NoiseModel
from repro.simulator import trace as trace_kinds
from repro.slp.distributed import SlpNodeProcess, SlpProtocolConfig, run_slp_setup
from repro.topology import (
    GridTopology,
    LineTopology,
    RingTopology,
    paper_grid,
    random_geometric_topology,
)

#: Seeds per (topology, noise) cell.  The issue's floor is 10.
SEEDS = range(10)

#: A trimmed round count keeps the legacy reference runs affordable;
#: the engines must agree for *any* config, so nothing is lost.
DAS_CFG = DasProtocolConfig(setup_periods=24)
SLP_CFG = SlpProtocolConfig(
    das=DAS_CFG, search_distance=2, change_length=3, refinement_periods=8
)

TOPOLOGIES = {
    "grid5": lambda: GridTopology(5),
    "line9": lambda: LineTopology(9),
    "ring8": lambda: RingTopology(8),
    "random16": lambda: random_geometric_topology(
        16, area_side=100.0, communication_range=40.0, seed=7
    ),
}

NOISES = {
    "ideal": lambda: IdealNoise(),
    "bernoulli": lambda: BernoulliNoise(0.1),
    "casino": lambda: CasinoLabNoise(),
}

COUNTED_KINDS = (
    trace_kinds.SEND,
    trace_kinds.DELIVER,
    trace_kinds.DROP,
    trace_kinds.SLOT_ASSIGNED,
    trace_kinds.SLOT_CHANGED,
    trace_kinds.PHASE,
)

#: Every observable attribute the harness or result extraction reads.
DAS_ATTRS = (
    "slot",
    "hop",
    "parent",
    "normal",
    "my_neighbours",
    "potential_parents",
    "children",
    "others",
    "ninfo",
    "_round",
    "_quiet_rounds",
    "_weak_mode",
)
SLP_ATTRS = DAS_ATTRS + (
    "from_set",
    "is_start_node",
    "is_decoy",
    "search_forwarded",
    "redirect_length",
    "search_sent",
    "change_sent",
)


def _counts(result):
    return {kind: result.simulator.trace.count(kind) for kind in COUNTED_KINDS}


def _assert_identical(fast, legacy, attrs=DAS_ATTRS):
    assert fast.schedule.slots() == legacy.schedule.slots()
    assert fast.schedule.parents() == legacy.schedule.parents()
    assert fast.messages_sent == legacy.messages_sent
    assert _counts(fast) == _counts(legacy)
    assert fast.simulator.trace.records == legacy.simulator.trace.records
    for node in legacy.simulator.topology.nodes:
        fp = fast.simulator._processes[node]
        lp = legacy.simulator._processes[node]
        for attr in attrs:
            assert getattr(fp, attr) == getattr(lp, attr), (node, attr)


class TestDasDifferential:
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_fast_matches_legacy(self, topo_name, noise_name):
        make_topo = TOPOLOGIES[topo_name]
        make_noise = NOISES[noise_name]
        for seed in SEEDS:
            fast = run_das_setup(
                make_topo(),
                config=DAS_CFG,
                seed=seed,
                noise=make_noise(),
                setup_kernel="fast",
            )
            legacy = run_das_setup(
                make_topo(),
                config=DAS_CFG,
                seed=seed,
                noise=make_noise(),
                setup_kernel="legacy",
            )
            _assert_identical(fast, legacy)

    def test_default_config_matches_legacy(self, grid7):
        """One cell at the paper's full Table I parameters (80 rounds)."""
        fast = run_das_setup(GridTopology(7), seed=0, setup_kernel="fast")
        legacy = run_das_setup(GridTopology(7), seed=0, setup_kernel="legacy")
        _assert_identical(fast, legacy)

    def test_paper_grid15_dissemination_matches_legacy(self):
        """The paper's 15x15 grid at its Table I parameters, 20 rounds."""
        config = PAPER.das_config(setup_periods=20)
        fast, legacy = (
            run_das_setup(paper_grid(15), config=config, seed=0, setup_kernel=kernel)
            for kernel in ("fast", "legacy")
        )
        _assert_identical(fast, legacy)


class TestSlpDifferential:
    @pytest.mark.parametrize("topo_name", ["grid5", "random16"])
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_fast_matches_legacy(self, topo_name, noise_name):
        make_topo = TOPOLOGIES[topo_name]
        make_noise = NOISES[noise_name]
        for seed in SEEDS:
            fast = run_slp_setup(
                make_topo(),
                config=SLP_CFG,
                seed=seed,
                noise=make_noise(),
                setup_kernel="fast",
            )
            legacy = run_slp_setup(
                make_topo(),
                config=SLP_CFG,
                seed=seed,
                noise=make_noise(),
                setup_kernel="legacy",
            )
            _assert_identical(fast, legacy, attrs=SLP_ATTRS)
            assert fast.search_messages == legacy.search_messages
            assert fast.change_messages == legacy.change_messages
            assert fast.start_node == legacy.start_node
            assert fast.decoy_path == legacy.decoy_path

    def test_default_config_matches_legacy(self, grid7):
        """The harness-computed CL/SD defaults, full 80 + 20 rounds."""
        fast = run_slp_setup(GridTopology(7), seed=1, setup_kernel="fast")
        legacy = run_slp_setup(GridTopology(7), seed=1, setup_kernel="legacy")
        _assert_identical(fast, legacy, attrs=SLP_ATTRS)


#: Topologies for the full-length cells: the paper's smallest grid and
#: a sparse random deployment (irregular degrees, longer repair chains).
FULL_LENGTH_TOPOLOGIES = {
    "paper_grid11": lambda: paper_grid(11),
    "random40": lambda: random_geometric_topology(
        40, area_side=100.0, communication_range=30.0, seed=3
    ),
}


def _outcome(run):
    """A setup result, or the ProtocolError message it raised."""
    try:
        return run()
    except ProtocolError as exc:
        return str(exc)


class TestFullLengthDifferential:
    """Fast vs legacy at the paper's round counts (MSP 80, then 20
    refinement rounds).  The 24-round configs above end before the
    quiescent rounds in which stable nodes repeat their snapshots under
    the DT timeout — the rounds where the kernel skips guard re-checks
    and re-merges — so only full-length runs cover those skips."""

    @pytest.mark.parametrize("topo_name", sorted(FULL_LENGTH_TOPOLOGIES))
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_slp_paper_parameters(self, topo_name, noise_name):
        make_topo = FULL_LENGTH_TOPOLOGIES[topo_name]
        topology = make_topo()
        config = SlpProtocolConfig(
            das=PAPER.das_config(),
            search_distance=3,
            change_length=PAPER.change_length(topology, 3),
            refinement_periods=20,
        )
        for seed in range(4):
            fast, legacy = (
                _outcome(
                    lambda kernel=kernel: run_slp_setup(
                        make_topo(),
                        config=config,
                        seed=seed,
                        noise=NOISES[noise_name](),
                        setup_kernel=kernel,
                    )
                )
                for kernel in ("fast", "legacy")
            )
            if isinstance(legacy, str) or isinstance(fast, str):
                assert fast == legacy, seed
                continue
            _assert_identical(fast, legacy, attrs=SLP_ATTRS)
            assert fast.phase1_messages == legacy.phase1_messages
            assert fast.phase1_unassigned == legacy.phase1_unassigned
            assert fast.decoy_path == legacy.decoy_path

    @pytest.mark.parametrize("topo_name", sorted(FULL_LENGTH_TOPOLOGIES))
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_das_paper_parameters(self, topo_name, noise_name):
        make_topo = FULL_LENGTH_TOPOLOGIES[topo_name]
        for seed in range(4):
            fast, legacy = (
                _outcome(
                    lambda kernel=kernel: run_das_setup(
                        make_topo(),
                        config=PAPER.das_config(),
                        seed=seed,
                        noise=NOISES[noise_name](),
                        setup_kernel=kernel,
                    )
                )
                for kernel in ("fast", "legacy")
            )
            if isinstance(legacy, str) or isinstance(fast, str):
                assert fast == legacy, seed
                continue
            _assert_identical(fast, legacy)


class _LinkOutage(NoiseModel):
    """Drops one directed link for its sender's first ``count`` broadcasts.

    Draws no RNG and keys on the per-sender broadcast count, which both
    engines advance in the same order, so its decisions are identical
    under either engine.
    """

    def __init__(self, link, count):
        self.link = link
        self.count = count
        self.sent = {}

    def reset(self):
        self.sent = {}

    def delivers(self, sender, receiver, rng):  # pragma: no cover - unused
        return self.delivers_block(sender, (receiver,), rng)[0]

    def delivers_block(self, sender, receivers, rng):
        k = self.sent.get(sender, 0)
        self.sent[sender] = k + 1
        dark = k < self.count
        return [not (dark and (sender, r) == self.link) for r in receivers]


class TestIncrementalRounds:
    @pytest.mark.parametrize("link", [(4, 14), (6, 14), (8, 13), (12, 0)])
    def test_neighbour_first_heard_after_its_entry_is_known(self, link):
        """The receiver misses its neighbour's hellos and first dissem
        rounds, learns the neighbour's entry from a third node, and only
        then hears it directly.  The neighbour joins ``myN`` while the
        receiver's Ninfo stays unchanged, and that alone must refresh the
        receiver's snapshot and re-arm its guard."""
        make_topo = TOPOLOGIES["random16"]
        for count in range(10, 17):
            fast, legacy = (
                run_das_setup(
                    make_topo(),
                    config=DAS_CFG,
                    seed=0,
                    noise=_LinkOutage(link, count),
                    setup_kernel=kernel,
                )
                for kernel in ("fast", "legacy")
            )
            _assert_identical(fast, legacy)


class TestProtocolErrors:
    """Failure parity: both engines raise the same ProtocolError."""

    def test_unassigned_nodes_raise_identically(self):
        """Too few rounds for the assignment wave to cross the line:
        distant nodes never obtain a slot, under either engine."""
        cfg = DasProtocolConfig(setup_periods=3, neighbour_discovery_periods=1)
        errors = []
        for kernel in ("fast", "legacy"):
            with pytest.raises(ProtocolError) as exc:
                run_das_setup(LineTopology(9), config=cfg, seed=0, setup_kernel=kernel)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert "never obtained a slot" in errors[0]

    def test_short_msp_decoy_recruit_raises_identically(self):
        """Grid 11 with MSP 10: Phase 1 ends with nodes still unassigned,
        and on some seeds Phase 3 would recruit one onto the decoy path.
        Per seed, both engines return identical results or raise the
        same ProtocolError naming that node."""
        from repro.experiments import PAPER
        from repro.topology import paper_grid

        config = SlpProtocolConfig(das=PAPER.das_config(setup_periods=10))
        raised = completed = 0
        for seed in range(8):
            outcomes = []
            for kernel in ("fast", "legacy"):
                try:
                    outcomes.append(
                        run_slp_setup(
                            paper_grid(11),
                            config=config,
                            seed=seed,
                            setup_kernel=kernel,
                        )
                    )
                except ProtocolError as exc:
                    outcomes.append(str(exc))
            fast, legacy = outcomes
            if isinstance(legacy, str):
                assert fast == legacy, seed
                assert "would recruit node" in legacy
                raised += 1
            else:
                _assert_identical(fast, legacy, attrs=SLP_ATTRS)
                completed += 1
        assert raised and completed  # both outcomes are exercised

    def test_invalid_setup_kernel_rejected(self, grid5):
        with pytest.raises(ConfigurationError, match="setup_kernel"):
            run_das_setup(grid5, seed=0, setup_kernel="warp")
        with pytest.raises(ConfigurationError, match="setup_kernel"):
            run_slp_setup(grid5, seed=0, setup_kernel="warp")


class TestFallbackGates:
    def test_subclass_is_not_compilable(self):
        class CustomProcess(DasNodeProcess):
            pass

        processes = {
            0: CustomProcess(0, is_sink=True, config=DAS_CFG),
            1: DasNodeProcess(1, is_sink=False, config=DAS_CFG),
        }
        assert not fast_setup_compilable(processes, DasNodeProcess)
        assert fast_setup_compilable(
            {n: DasNodeProcess(n, is_sink=n == 0, config=DAS_CFG) for n in (0, 1)},
            DasNodeProcess,
        )

    def test_subclass_falls_back_to_heap_with_identical_results(
        self, grid5, monkeypatch
    ):
        """A process_factory subclass must never enter the fast kernel —
        and the heap run it falls back to equals an explicit legacy run."""

        class CustomProcess(DasNodeProcess):
            pass

        called = []
        real = fs.run_fast_setup
        monkeypatch.setattr(
            fs, "run_fast_setup", lambda *a, **k: called.append(True) or real(*a, **k)
        )
        import repro.das.protocol as protocol

        monkeypatch.setattr(
            protocol, "run_fast_setup", fs.run_fast_setup, raising=True
        )
        fell_back = run_das_setup(
            grid5,
            config=DAS_CFG,
            seed=3,
            process_factory=CustomProcess,
            setup_kernel="fast",
        )
        assert not called
        legacy = run_das_setup(
            grid5, config=DAS_CFG, seed=3, setup_kernel="legacy"
        )
        assert fell_back.schedule.slots() == legacy.schedule.slots()
        assert fell_back.messages_sent == legacy.messages_sent

    def test_degenerate_jitter_is_not_supported(self):
        """jitter_fraction == 1.0 lets a broadcast land past the round
        boundary; the static gate must refuse it."""
        cfg = DasProtocolConfig(jitter_fraction=1.0)
        assert not fast_setup_supported(cfg, 1e-4)
        assert fast_setup_supported(DasProtocolConfig(), 1e-4)

    def test_slp_chain_budget_counts_against_the_round(self):
        """The SLP search/change chain tightens the timing gate: a huge
        propagation delay passes the plain-DAS check but not SLP's."""
        cfg = DasProtocolConfig()  # 0.5 s period, 0.8 jitter
        delay = 0.05  # one hop fits (0.4 + 0.05 < 0.5) ...
        assert fast_setup_supported(cfg, delay)
        # ... but a 40+-hop search chain does not.
        assert not fast_setup_supported(
            cfg, delay, search_distance=3, change_length=5
        )

    def test_default_run_uses_the_fast_kernel(self, grid5, monkeypatch):
        """The default engages the kernel (not a silent permanent
        fallback)."""
        import repro.das.protocol as protocol

        called = []
        real = fs.run_fast_setup

        def spy(*args, **kwargs):
            called.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol, "run_fast_setup", spy)
        run_das_setup(grid5, config=DAS_CFG, seed=0)
        assert called


class TestExperimentThreading:
    """setup_kernel travels through ExperimentConfig and the runners."""

    def test_distributed_builds_identical_across_kernels(self, grid5):
        from repro.experiments import ExperimentConfig, ExperimentRunner

        params_kwargs = dict(
            algorithm="slp",
            use_distributed=True,
            repeats=1,
            use_schedule_cache=False,
        )
        runner = ExperimentRunner(grid5)
        fast = runner.build_schedule(
            ExperimentConfig(setup_kernel="fast", **params_kwargs), seed=4
        )
        legacy = runner.build_schedule(
            ExperimentConfig(setup_kernel="legacy", **params_kwargs), seed=4
        )
        assert fast.slots() == legacy.slots()
        assert fast.parents() == legacy.parents()

    def test_cache_keys_never_share_entries_across_setup_kernels(self, grid5):
        """Selecting legacy is a bisection: it must not be handed a
        fast-built cache entry (and vice versa)."""
        from repro.experiments import ExperimentConfig, ExperimentRunner

        runner = ExperimentRunner(grid5)
        kf = runner.schedule_key_for(
            ExperimentConfig(use_distributed=True, setup_kernel="fast"), 0
        )
        kl = runner.schedule_key_for(
            ExperimentConfig(use_distributed=True, setup_kernel="legacy"), 0
        )
        kd = runner.schedule_key_for(
            ExperimentConfig(use_distributed=True), 0
        )
        assert kf != kl
        assert kd == kf  # None resolves to the default engine (fast)
        # Centralised builds ignore the knob entirely.
        kc1 = runner.schedule_key_for(ExperimentConfig(setup_kernel="fast"), 0)
        kc2 = runner.schedule_key_for(ExperimentConfig(setup_kernel="legacy"), 0)
        assert kc1 == kc2

    def test_scenario_runner_override_is_bit_identical(self):
        from repro.scenarios import ScenarioRunner

        fast = ScenarioRunner(setup_kernel="fast").run("paper-baseline", seeds=2)
        legacy = ScenarioRunner(setup_kernel="legacy").run("paper-baseline", seeds=2)
        assert fast.to_json() == legacy.to_json()


class TestScheduleShipping:
    """Satellite: the parallel runner ships already-built schedules with
    each worker chunk, and the accounting stays truthful."""

    def _distributed_config(self):
        from repro.experiments import ExperimentConfig

        return ExperimentConfig(
            algorithm="protectionless",
            use_distributed=True,
            repeats=3,
            max_periods=4,
        )

    def test_parent_ships_only_warm_entries_counter_neutrally(self, grid5):
        from repro.experiments import ParallelExperimentRunner
        from repro.experiments.schedule_cache import ScheduleCache

        cache = ScheduleCache()
        runner = ParallelExperimentRunner(grid5, workers=2, schedule_cache=cache)
        config = self._distributed_config()
        # Cold parent: nothing to ship.
        assert runner._cached_schedules_for(config, (0, 1, 2)) is None
        # Warm one seed; exactly that entry travels.
        built = runner.build_schedule(config, 1)
        before = cache.stats()
        shipped = runner._cached_schedules_for(config, (0, 1, 2))
        assert cache.stats() == before  # peek is counter-neutral
        assert shipped is not None and len(shipped) == 1
        key = runner.schedule_key_for(config, 1)
        assert shipped[key] is built

    def test_worker_chunk_reuses_preloaded_schedules(self, grid5):
        """_run_seed_chunk with a shipped payload takes cache hits, not
        rebuilds — run in-process so the default cache is observable."""
        from repro.experiments import ExperimentRunner
        from repro.experiments.parallel import _run_seed_chunk, _SweepSeed
        from repro.experiments.schedule_cache import (
            default_schedule_cache,
            reset_default_cache,
        )

        config = self._distributed_config()
        parent = ExperimentRunner(grid5)
        shipped = {
            parent.schedule_key_for(config, seed): parent._build_schedule(
                config, seed
            )
            for seed in (0, 1)
        }
        reset_default_cache()
        try:
            results = _run_seed_chunk(
                _SweepSeed(grid5, config, shipped), (0, 1), telemetry=False
            )
            stats = default_schedule_cache().stats()
            assert len(results) == 2
            assert stats["hits"] == 2  # both lookups found shipped entries
            assert stats["misses"] == 0  # preload itself counted nothing
        finally:
            reset_default_cache()

    def test_pool_results_identical_with_warm_and_cold_parent(self, grid5):
        from repro.experiments import (
            ExperimentRunner,
            ParallelExperimentRunner,
        )

        config = self._distributed_config()
        serial = ExperimentRunner(grid5).run(config)
        with ParallelExperimentRunner(grid5, workers=2) as pool_runner:
            # Warm the parent cache so chunks ship real payloads.
            for i in range(config.repeats):
                pool_runner.build_schedule(config, config.base_seed + i)
            warm = pool_runner.run(config)
        assert warm.results == serial.results
        assert warm.stats == serial.stats
