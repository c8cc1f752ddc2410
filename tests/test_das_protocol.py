"""Tests for the distributed Phase 1 protocol (Figure 2)."""

import pytest

from repro.core import check_strong_das, check_weak_das
from repro.das import (
    DasNodeProcess,
    DasProtocolConfig,
    DissemMessage,
    NodeInfo,
    run_das_setup,
)
from repro.errors import ProtocolError
from repro.simulator import BernoulliNoise
from repro.topology import GridTopology, LineTopology, RingTopology


def fast_config(periods=30) -> DasProtocolConfig:
    return DasProtocolConfig(setup_periods=periods)


class TestConfigValidation:
    def test_defaults_match_table1(self):
        cfg = DasProtocolConfig()
        assert cfg.dissemination_period == 0.5
        assert cfg.num_slots == 100
        assert cfg.neighbour_discovery_periods == 4
        assert cfg.setup_periods == 80
        assert cfg.dissemination_timeout == 5

    def test_validation(self):
        with pytest.raises(ProtocolError):
            DasProtocolConfig(dissemination_period=0)
        with pytest.raises(ProtocolError):
            DasProtocolConfig(num_slots=0)
        with pytest.raises(ProtocolError):
            DasProtocolConfig(neighbour_discovery_periods=0)
        with pytest.raises(ProtocolError):
            DasProtocolConfig(setup_periods=4, neighbour_discovery_periods=4)
        with pytest.raises(ProtocolError):
            DasProtocolConfig(jitter_fraction=0.0)
        with pytest.raises(ProtocolError):
            DasProtocolConfig(dissemination_timeout=0)


class TestMessages:
    def test_node_info_assigned(self):
        assert not NodeInfo().assigned
        assert NodeInfo(hop=1, slot=5).assigned

    def test_dissem_entry_defaults_to_unknown(self):
        msg = DissemMessage(normal=True, sender=1, ninfo={})
        assert not msg.entry(7).assigned

    def test_unassigned_neighbours(self):
        msg = DissemMessage(
            normal=True,
            sender=1,
            ninfo={
                1: NodeInfo(0, 9),
                2: NodeInfo(1, 5),
                3: NodeInfo(),
                4: NodeInfo(),
            },
        )
        assert msg.unassigned_neighbours() == (3, 4)


class TestDistributedSetup:
    @pytest.mark.parametrize(
        "topology,periods",
        [
            (LineTopology(6), 25),
            (RingTopology(8), 25),
            (GridTopology(5), 35),
        ],
        ids=["line", "ring", "grid5"],
    )
    def test_converges_to_strong_das(self, topology, periods):
        result = run_das_setup(topology, config=fast_config(periods), seed=3)
        check = check_strong_das(topology, result.schedule)
        assert check.ok, check.summary()

    def test_every_node_assigned(self, grid5):
        result = run_das_setup(grid5, config=fast_config(35), seed=0)
        assert result.schedule.covers(grid5)

    def test_message_count_positive_and_bounded(self, line5):
        result = run_das_setup(line5, config=fast_config(25), seed=0)
        assert 0 < result.messages_sent
        # At most one broadcast per node per round.
        assert result.messages_sent <= line5.num_nodes * 25

    def test_dissemination_timeout_saves_messages(self, line5):
        eager = DasProtocolConfig(setup_periods=40, dissemination_timeout=40)
        lazy = DasProtocolConfig(setup_periods=40, dissemination_timeout=2)
        eager_msgs = run_das_setup(line5, config=eager, seed=1).messages_sent
        lazy_msgs = run_das_setup(line5, config=lazy, seed=1).messages_sent
        assert lazy_msgs < eager_msgs

    def test_same_seed_reproduces_schedule(self, grid5):
        a = run_das_setup(grid5, config=fast_config(35), seed=9).schedule
        b = run_das_setup(grid5, config=fast_config(35), seed=9).schedule
        assert a == b

    def test_survives_light_noise(self, grid5):
        result = run_das_setup(
            grid5,
            config=fast_config(50),
            seed=2,
            noise=BernoulliNoise(0.05),
        )
        # Under light loss the protocol still converges to a weak DAS at
        # minimum (collision knowledge can lag 2 hops behind).
        assert check_weak_das(grid5, result.schedule).ok

    def test_insufficient_periods_raises(self):
        # 6 rounds on a 5x5 grid (sink-corner distance 4, NDP 4) cannot
        # assign everyone.
        grid = GridTopology(5)
        with pytest.raises(ProtocolError, match="never obtained a slot"):
            run_das_setup(grid, config=fast_config(6), seed=0)

    def test_parent_pointers_point_sinkward(self, grid5):
        result = run_das_setup(grid5, config=fast_config(35), seed=4)
        schedule = result.schedule
        for node in grid5.nodes:
            if node == grid5.sink:
                continue
            parent = schedule.parent_of(node)
            assert parent is not None
            assert grid5.are_linked(node, parent)
            assert grid5.sink_distance(parent) <= grid5.sink_distance(node)


class TestProcessInternals:
    def test_sink_initialises_itself(self, line5):
        from repro.simulator import Simulator

        sim = Simulator(line5)
        cfg = fast_config(25)
        sink_proc = DasNodeProcess(line5.sink, is_sink=True, config=cfg)
        sim.register_process(sink_proc)
        sim.schedule_at(0.0, lambda: None)
        sim.step()
        assert sink_proc.slot == cfg.num_slots
        assert sink_proc.hop == 0

    def test_merge_prefers_smaller_slot(self, line5):
        from repro.simulator import Simulator

        sim = Simulator(line5)
        proc = DasNodeProcess(0, is_sink=False, config=fast_config(25))
        sim.register_process(proc)
        proc.ninfo[5] = NodeInfo(hop=2, slot=10)
        assert proc._merge_entry(5, NodeInfo(hop=2, slot=8))
        assert proc.ninfo[5].slot == 8
        assert not proc._merge_entry(5, NodeInfo(hop=2, slot=12))  # stale
        assert proc.ninfo[5].slot == 8
