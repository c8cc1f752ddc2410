"""Differential tests for the setup-phase fast kernel.

The contract: ``run_das_setup`` / ``run_slp_setup`` with the flat-round
setup kernel (:mod:`repro.das.fast_setup`, the default) are
*bit-identical* to the legacy event-heap engine — same RNG stream, same
``Schedule``, same retained trace records and per-kind counters, same
``messages_sent``, same final process state — across topologies, noise
models and seeds.  A run takes exactly the engine it asks for: a round
geometry the kernel cannot prove safe is refused with a
``ConfigurationError`` that names the legacy request.
"""

from __future__ import annotations

import math
import random

import pytest
from differential import differential_settings, unit_disk_topologies
from hypothesis import example, given
from hypothesis import strategies as st

import repro.das.fast_setup as fs
from repro.das import DasNodeProcess, DasProtocolConfig, run_das_setup
from repro.das.messages import NodeInfo
from repro.errors import ConfigurationError, ProtocolError
from repro.experiments import PAPER
from repro.simulator import BernoulliNoise, CasinoLabNoise, IdealNoise, NoiseModel
from repro.simulator import trace as trace_kinds
from repro.slp.distributed import SlpProtocolConfig, run_slp_setup
from repro.topology import (
    GridTopology,
    LineTopology,
    RingTopology,
    Topology,
    paper_grid,
    random_geometric_topology,
)

#: The setup refusal's pointer to the engine that runs what the fast
#: kernel refuses.
SETUP_LEGACY_REQUEST = "setup_kernel='legacy', --legacy-setup-kernel"

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


def _state_view(state, node):
    """The final process attributes a fast run stands for: the legacy
    engine's ``DAS_ATTRS``/``SLP_ATTRS``, mapped from the kernel's
    arrays, masks and ordered containers."""
    i = state.index[node]
    ids = state._mask_ids
    return {
        "slot": state.slot[i],
        "hop": state.hop[i],
        "parent": state.parent[i],
        "normal": state.normal[i],
        "my_neighbours": state.myn_set[i],
        "potential_parents": state.pparents[i],
        "children": set(ids(state.children_mask[i])),
        "others": {j: tuple(ids(mask)) for j, mask in state.others[i].items()},
        "ninfo": {n: NodeInfo(hop=h, slot=s) for n, (h, s) in state.nin[i].items()},
        "_round": state.rounds_run,
        "_quiet_rounds": state.quiet[i],
        "_weak_mode": state.weak[i],
        "from_set": set(ids(state.from_mask[i])),
        "is_start_node": state.is_start[i],
        "is_decoy": state.is_decoy[i],
        "search_forwarded": state.search_forwarded[i],
        "redirect_length": state.redirect_length[i],
        "search_sent": state.search_sent[i],
        "change_sent": state.change_sent[i],
    }


def _assert_identical(engines, fast, legacy, attrs=DAS_ATTRS):
    """``fast`` and ``legacy`` agree on everything observable;
    ``engines`` is the ``setup_engines`` record of both runs."""
    assert fast.schedule.slots() == legacy.schedule.slots()
    assert fast.schedule.parents() == legacy.schedule.parents()
    assert fast.messages_sent == legacy.messages_sent
    assert _counts(fast) == _counts(legacy)
    assert fast.simulator.trace.records == legacy.simulator.trace.records
    state = engines[fast.simulator]
    processes = engines[legacy.simulator]
    assert sorted(processes) == sorted(state.order)
    for node, process in processes.items():
        view = _state_view(state, node)
        for attr in attrs:
            assert view[attr] == getattr(process, attr), (node, attr)


class TestDasDifferential:
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_fast_matches_legacy(self, topo_name, noise_name, setup_engines):
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
            _assert_identical(setup_engines, fast, legacy)

    def test_default_config_matches_legacy(self, grid7, setup_engines):
        """One cell at the paper's full Table I parameters (80 rounds)."""
        fast = run_das_setup(GridTopology(7), seed=0, setup_kernel="fast")
        legacy = run_das_setup(GridTopology(7), seed=0, setup_kernel="legacy")
        _assert_identical(setup_engines, fast, legacy)

    def test_paper_grid15_dissemination_matches_legacy(self, setup_engines):
        """The paper's 15x15 grid at its Table I parameters, 20 rounds."""
        config = PAPER.das_config(setup_periods=20)
        fast, legacy = (
            run_das_setup(paper_grid(15), config=config, seed=0, setup_kernel=kernel)
            for kernel in ("fast", "legacy")
        )
        _assert_identical(setup_engines, fast, legacy)


class TestSlpDifferential:
    @pytest.mark.parametrize("topo_name", ["grid5", "random16"])
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_fast_matches_legacy(self, topo_name, noise_name, setup_engines):
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
            _assert_identical(setup_engines, fast, legacy, attrs=SLP_ATTRS)
            assert fast.search_messages == legacy.search_messages
            assert fast.change_messages == legacy.change_messages
            assert fast.start_node == legacy.start_node
            assert fast.decoy_path == legacy.decoy_path

    def test_default_config_matches_legacy(self, grid7, setup_engines):
        """The harness-computed CL/SD defaults, full 80 + 20 rounds."""
        fast = run_slp_setup(GridTopology(7), seed=1, setup_kernel="fast")
        legacy = run_slp_setup(GridTopology(7), seed=1, setup_kernel="legacy")
        _assert_identical(setup_engines, fast, legacy, attrs=SLP_ATTRS)


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
    def test_slp_paper_parameters(self, topo_name, noise_name, setup_engines):
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
            _assert_identical(setup_engines, fast, legacy, attrs=SLP_ATTRS)
            assert fast.phase1_messages == legacy.phase1_messages
            assert fast.phase1_unassigned == legacy.phase1_unassigned
            assert fast.decoy_path == legacy.decoy_path

    @pytest.mark.parametrize("topo_name", sorted(FULL_LENGTH_TOPOLOGIES))
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    def test_das_paper_parameters(self, topo_name, noise_name, setup_engines):
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
            _assert_identical(setup_engines, fast, legacy)


GENERATED_NOISES = {
    "ideal": IdealNoise,
    "bernoulli": lambda: BernoulliNoise(0.2),
    "casino": CasinoLabNoise,
}


def _generated_run(run, topology, config, seed, noise_name, kernel):
    return _outcome(
        lambda: run(
            topology,
            config=config,
            seed=seed,
            noise=GENERATED_NOISES[noise_name](),
            setup_kernel=kernel,
        )
    )


class TestGeneratedDifferential:
    """Fast equals legacy on generated networks, noise, MSP and SD:
    the schedule, the counted trace kinds, the trace records, every
    per-node attribute, or the ``ProtocolError`` text."""

    @given(
        topology=unit_disk_topologies(),
        noise_name=st.sampled_from(sorted(GENERATED_NOISES)),
        ndp=st.integers(1, 3),
        msp_extra=st.integers(1, 20),
        search_distance=st.one_of(st.none(), st.integers(1, 3)),
        refinement=st.integers(2, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    # The deep run's shrunk counterexample to a merge that skips the
    # entries stamped one version after the last snapshot merged
    # (``stamp > seen + 1``).  Pinned, because whether the derandomized
    # draws catch that bug depends on this test's source text.
    @example(
        topology=Topology.from_edges([(0, 1), (1, 2)], sink=0, source=1),
        noise_name="bernoulli",
        ndp=1,
        msp_extra=4,
        search_distance=None,
        refinement=2,
        seed=1,
    )
    @differential_settings(max_examples=120)
    def test_fast_matches_legacy(
        self,
        setup_engines,
        topology,
        noise_name,
        ndp,
        msp_extra,
        search_distance,
        refinement,
        seed,
    ):
        setup_engines.clear()
        das = DasProtocolConfig(
            neighbour_discovery_periods=ndp, setup_periods=ndp + msp_extra
        )
        if search_distance is None:
            run, config, attrs = run_das_setup, das, DAS_ATTRS
        else:
            change_length = max(1, topology.source_sink_distance() - search_distance)
            config = SlpProtocolConfig(
                das=das,
                search_distance=search_distance,
                change_length=change_length,
                refinement_periods=refinement,
            )
            run, attrs = run_slp_setup, SLP_ATTRS
        fast, legacy = (
            _generated_run(run, topology, config, seed, noise_name, kernel)
            for kernel in ("fast", "legacy")
        )
        if isinstance(fast, str) or isinstance(legacy, str):
            assert fast == legacy
            return
        _assert_identical(setup_engines, fast, legacy, attrs=attrs)
        if search_distance is not None:
            for name in (
                "search_messages",
                "change_messages",
                "start_node",
                "decoy_path",
                "phase1_messages",
                "phase1_unassigned",
            ):
                assert getattr(fast, name) == getattr(legacy, name), name


    @given(
        topology=unit_disk_topologies(),
        noise_name=st.sampled_from(sorted(GENERATED_NOISES)),
        search_distance=st.one_of(st.none(), st.integers(1, 3)),
        step=st.sampled_from((-1e-3, -1e-9, -1, 0, 1, 1e-9, 1e-3, None)),
        seed=st.integers(0, 2**31 - 1),
    )
    @differential_settings(max_examples=40)
    def test_jitter_boundary_matches_legacy_or_is_refused(
        self, setup_engines, topology, noise_name, search_distance, step, seed
    ):
        """Jitter around the round's limit — ``jitter_fraction × P``
        plus the longest chain of ``propagation_delay`` hops reaching
        ``P`` — one ulp or a relative step either side of it, or the
        maximum 1.0: the fast kernel equals the legacy engine, or
        refuses the round geometry with the documented error."""
        setup_engines.clear()
        period, delay = 0.5, 1e-4
        hops = 1
        if search_distance is not None:
            change_length = max(1, topology.source_sink_distance() - search_distance)
            hops += fs.search_ttl(search_distance) + 2 + change_length
        limit = 1 - hops * delay / period
        if step is None:
            jitter = 1.0
        elif step in (-1, 0, 1):
            jitter = limit
            for _ in range(abs(step)):
                jitter = math.nextafter(jitter, step)
        else:
            jitter = min(1.0, limit * (1 + step))
        das = DasProtocolConfig(
            neighbour_discovery_periods=1, setup_periods=8, jitter_fraction=jitter
        )
        if search_distance is None:
            run, config, attrs = run_das_setup, das, DAS_ATTRS
        else:
            config = SlpProtocolConfig(
                das=das,
                search_distance=search_distance,
                change_length=change_length,
                refinement_periods=3,
            )
            run, attrs = run_slp_setup, SLP_ATTRS
        try:
            fast = _generated_run(run, topology, config, seed, noise_name, "fast")
        except ConfigurationError as exc:
            assert jitter > limit * (1 - 1e-9), (jitter, limit)
            assert "jitter_fraction" in str(exc)
            assert SETUP_LEGACY_REQUEST in str(exc)
            return
        assert jitter < limit * (1 + 1e-9), (jitter, limit)
        legacy = _generated_run(run, topology, config, seed, noise_name, "legacy")
        if isinstance(fast, str) or isinstance(legacy, str):
            assert fast == legacy
            return
        _assert_identical(setup_engines, fast, legacy, attrs=attrs)


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
    @pytest.mark.parametrize("n", [1, 2, 25, 225])
    def test_silent_round_draw_advances_like_n_jitter_draws(self, n):
        """A silent round replaces its n ``random()`` jitter draws with
        one ``getrandbits(64 * n)``: the generator must end in the same
        state."""
        drawn, skipped = random.Random(n), random.Random(n)
        for _ in range(n):
            drawn.random()
        skipped.getrandbits(64 * n)
        assert drawn.getstate() == skipped.getstate()

    @pytest.mark.parametrize("link", [(4, 14), (6, 14), (8, 13), (12, 0)])
    def test_neighbour_first_heard_after_its_entry_is_known(self, link, setup_engines):
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
            _assert_identical(setup_engines, fast, legacy)


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

    def test_short_msp_decoy_recruit_raises_identically(self, setup_engines):
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
                _assert_identical(setup_engines, fast, legacy, attrs=SLP_ATTRS)
                completed += 1
        assert raised and completed  # both outcomes are exercised

    def test_invalid_setup_kernel_rejected(self, grid5):
        with pytest.raises(ConfigurationError, match="setup_kernel"):
            run_das_setup(grid5, seed=0, setup_kernel="warp")
        with pytest.raises(ConfigurationError, match="setup_kernel"):
            run_slp_setup(grid5, seed=0, setup_kernel="warp")


class TestEngineRequest:
    def test_legacy_request_runs_the_process_engine(self, grid5, setup_engines):
        """``setup_kernel="legacy"`` runs the stock process engine; the
        default run builds no process."""
        legacy = run_das_setup(grid5, config=DAS_CFG, seed=3, setup_kernel="legacy")
        default = run_das_setup(grid5, config=DAS_CFG, seed=3)
        processes = setup_engines[legacy.simulator]
        assert all(type(p) is DasNodeProcess for p in processes.values())
        assert isinstance(setup_engines[default.simulator], fs.FastSetupState)
        assert default.simulator._processes == {}
        assert legacy.schedule.slots() == default.schedule.slots()
        assert legacy.messages_sent == default.messages_sent

    def test_degenerate_jitter_is_refused(self, grid5, setup_engines):
        """jitter_fraction == 1.0 lets a broadcast land past the round
        boundary: the fast kernel refuses it before its first round,
        naming the limit and the legacy request, which runs it."""
        cfg = DasProtocolConfig(setup_periods=24, jitter_fraction=1.0)
        with pytest.raises(ConfigurationError, match="jitter_fraction 1.0") as exc:
            run_das_setup(grid5, config=cfg, seed=3, setup_kernel="fast")
        assert SETUP_LEGACY_REQUEST in str(exc.value)
        assert not setup_engines  # no round ran
        legacy = run_das_setup(grid5, config=cfg, seed=3, setup_kernel="legacy")
        assert legacy.messages_sent > 0

    def test_slp_chain_budget_counts_against_the_round(self, grid5):
        """The SLP search/change chain tightens the timing limit: a
        jitter that leaves room for one hop runs plain DAS on the fast
        kernel, but a 64-hop search/change chain no longer fits."""
        das = DasProtocolConfig(setup_periods=24, jitter_fraction=0.99)
        run_das_setup(grid5, config=das, seed=0, setup_kernel="fast")
        slp = SlpProtocolConfig(
            das=das, search_distance=3, change_length=5, refinement_periods=4
        )
        with pytest.raises(ConfigurationError, match="64-hop chain") as exc:
            run_slp_setup(grid5, config=slp, seed=0, setup_kernel="fast")
        assert SETUP_LEGACY_REQUEST in str(exc.value)

    def test_default_run_uses_the_fast_kernel(self, grid5, monkeypatch):
        """The default engages the kernel."""
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


class TestScheduleInheritance:
    """Pooled workers fork after the sweep opens, so they inherit the
    schedules the parent already built instead of rebuilding them."""

    def _distributed_config(self):
        from repro.experiments import ExperimentConfig

        return ExperimentConfig(
            algorithm="protectionless",
            use_distributed=True,
            repeats=3,
            max_periods=4,
        )

    def test_pooled_workers_reuse_the_parents_schedules(self, grid5, monkeypatch):
        from repro.experiments import ExperimentRunner, SeedPool
        from repro.experiments.schedule_cache import ScheduleCache

        config = self._distributed_config()
        serial = ExperimentRunner(grid5).run(config)
        runner = ExperimentRunner(
            grid5, schedule_cache=ScheduleCache(), pool=SeedPool(workers=2)
        )
        for i in range(config.repeats):
            runner.build_schedule(config, config.base_seed + i)

        def rebuilt(self, config, seed):
            raise AssertionError(f"a worker rebuilt seed {seed}'s schedule")

        # The workers fork after this patch: any build they attempt
        # fails its seed, which the sweep would quarantine.
        monkeypatch.setattr(ExperimentRunner, "_build_schedule", rebuilt)
        pooled = runner.run(config)
        assert pooled.failures == ()
        assert pooled.results == serial.results

    def test_pool_results_identical_with_warm_and_cold_parent(self, grid5):
        from repro.experiments import ExperimentRunner, SeedPool

        config = self._distributed_config()
        serial = ExperimentRunner(grid5).run(config)
        pool_runner = ExperimentRunner(grid5, pool=SeedPool(workers=2))
        # Warm the parent cache the workers inherit.
        for i in range(config.repeats):
            pool_runner.build_schedule(config, config.base_seed + i)
        warm = pool_runner.run(config)
        assert warm.results == serial.results
        assert warm.stats == serial.stats
