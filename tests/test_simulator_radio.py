"""Unit tests for the radio medium, channels and noise models."""

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.simulator import (
    BernoulliNoise,
    CasinoLabNoise,
    Channel,
    DELIVER,
    DROP,
    Delivery,
    IdealNoise,
    Process,
    SEND,
    Simulator,
)
from repro.topology import GridTopology, LineTopology


class Recorder(Process):
    """Records everything delivered to it."""

    def __init__(self, node):
        super().__init__(node)
        self.received = []

    def on_receive(self, sender, message, time):
        self.received.append((sender, message, time))


class TestChannel:
    def test_fifo_order(self):
        ch = Channel(owner=0)
        ch.enqueue(Delivery(1, "a", 0.0))
        ch.enqueue(Delivery(2, "b", 0.1))
        assert ch.dequeue().message == "a"
        assert ch.dequeue().message == "b"

    def test_dequeue_empty_raises(self):
        with pytest.raises(SimulationError, match="empty channel"):
            Channel(owner=0).dequeue()

    def test_head_peeks(self):
        ch = Channel(owner=0)
        ch.enqueue(Delivery(1, "a", 0.0))
        assert ch.head().message == "a"
        assert len(ch) == 1

    def test_drain(self):
        ch = Channel(owner=0)
        for i in range(3):
            ch.enqueue(Delivery(1, i, 0.0))
        assert [d.message for d in ch.drain()] == [0, 1, 2]
        assert not ch

    def test_clear(self):
        ch = Channel(owner=0)
        ch.enqueue(Delivery(1, "x", 0.0))
        ch.clear()
        assert len(ch) == 0


class TestBroadcast:
    def test_neighbours_receive(self):
        topo = LineTopology(3)
        sim = Simulator(topo)
        procs = {n: Recorder(n) for n in topo.nodes}
        for p in procs.values():
            sim.register_process(p)
        sim.schedule_at(1.0, lambda: sim.radio.broadcast(1, "hello"))
        sim.run()
        assert [m for _, m, _ in procs[0].received] == ["hello"]
        assert [m for _, m, _ in procs[2].received] == ["hello"]
        assert procs[1].received == []  # no self-delivery

    def test_send_and_deliver_traced(self):
        topo = LineTopology(3)
        sim = Simulator(topo)
        for n in topo.nodes:
            sim.register_process(Recorder(n))
        sim.schedule_at(0.5, lambda: sim.radio.broadcast(0, "x"))
        sim.run()
        assert sim.trace.count(SEND) == 1
        assert sim.trace.count(DELIVER) == 1  # node 0 has one neighbour

    def test_detached_node_misses_frames(self):
        topo = LineTopology(3)
        sim = Simulator(topo)
        procs = {n: Recorder(n) for n in topo.nodes}
        for p in procs.values():
            sim.register_process(p)
        sim.radio.detach(2)
        sim.schedule_at(0.5, lambda: sim.radio.broadcast(1, "x"))
        sim.run()
        assert procs[0].received and not procs[2].received

    @pytest.mark.parametrize("node", [0, 1, 5], ids=["corner", "edge", "interior"])
    def test_a_toggle_rebuilds_only_the_neighbours_fanouts(self, node):
        """Attaching or detaching a node changes only the fan-outs that
        list it, its neighbours'; every other sender keeps its cached
        fan-out, and every fan-out still lists exactly the attached
        neighbours."""
        topo = GridTopology(4)
        sim = Simulator(topo)
        procs = {n: Recorder(n) for n in topo.nodes}
        for p in procs.values():
            sim.register_process(p)
        radio = sim.radio
        for toggle in (
            lambda: radio.detach(node),
            lambda: radio.attach(node, procs[node].deliver),
        ):
            for n in topo.nodes:
                radio.fanout(n)
            toggle()
            rebuilt = [n for n in topo.nodes if n not in radio._fanout_cache]
            assert rebuilt == sorted(topo.neighbours(node))
        for n in topo.nodes:
            assert radio.fanout(n)[1] == topo.neighbours(n)

    def test_lossy_link_drops_traced(self):
        topo = LineTopology(2)
        sim = Simulator(topo, noise=BernoulliNoise(1.0 - 1e-12), seed=1)
        procs = {n: Recorder(n) for n in topo.nodes}
        for p in procs.values():
            sim.register_process(p)
        sim.schedule_at(0.5, lambda: sim.radio.broadcast(0, "x"))
        sim.run()
        assert sim.trace.count(DROP) == 1
        assert not procs[1].received

    def test_collision_window(self):
        topo = LineTopology(3)
        sim = Simulator(topo, collision_window=0.01)
        procs = {n: Recorder(n) for n in topo.nodes}
        for p in procs.values():
            sim.register_process(p)
        # Nodes 0 and 2 transmit simultaneously: node 1 receives both
        # frames within the window, so the second one collides.
        sim.schedule_at(1.0, lambda: sim.radio.broadcast(0, "a"))
        sim.schedule_at(1.0, lambda: sim.radio.broadcast(2, "b"))
        sim.run()
        assert len(procs[1].received) == 1


class TestEavesdropping:
    class Spy:
        def __init__(self, location):
            self.location = location
            self.heard = []

        def overhear(self, sender, message, time):
            self.heard.append((sender, message))

    def test_overhears_in_range_only(self):
        topo = LineTopology(4)
        sim = Simulator(topo)
        for n in topo.nodes:
            sim.register_process(Recorder(n))
        spy = self.Spy(location=0)
        sim.radio.attach_eavesdropper(spy)
        sim.schedule_at(0.5, lambda: sim.radio.broadcast(1, "near"))
        sim.schedule_at(0.6, lambda: sim.radio.broadcast(3, "far"))
        sim.run()
        assert spy.heard == [(1, "near")]

    def test_hears_own_location_sender(self):
        topo = LineTopology(3)
        sim = Simulator(topo)
        for n in topo.nodes:
            sim.register_process(Recorder(n))
        spy = self.Spy(location=1)
        sim.radio.attach_eavesdropper(spy)
        sim.schedule_at(0.5, lambda: sim.radio.broadcast(1, "self"))
        sim.run()
        assert spy.heard == [(1, "self")]

    def test_detach_eavesdropper(self):
        topo = LineTopology(3)
        sim = Simulator(topo)
        for n in topo.nodes:
            sim.register_process(Recorder(n))
        spy = self.Spy(location=1)
        sim.radio.attach_eavesdropper(spy)
        sim.radio.detach_eavesdropper(spy)
        sim.schedule_at(0.5, lambda: sim.radio.broadcast(0, "x"))
        sim.run()
        assert spy.heard == []


class TestNoiseModels:
    def test_ideal_always_delivers(self):
        rng = random.Random(0)
        noise = IdealNoise()
        assert all(noise.delivers(0, 1, rng) for _ in range(100))

    def test_bernoulli_rate(self):
        rng = random.Random(0)
        noise = BernoulliNoise(0.3)
        outcomes = [noise.delivers(0, 1, rng) for _ in range(5000)]
        rate = 1 - sum(outcomes) / len(outcomes)
        assert rate == pytest.approx(0.3, abs=0.03)

    def test_bernoulli_validation(self):
        with pytest.raises(ConfigurationError):
            BernoulliNoise(1.0)
        with pytest.raises(ConfigurationError):
            BernoulliNoise(-0.1)

    def test_casino_long_run_rate_matches_expectation(self):
        rng = random.Random(7)
        noise = CasinoLabNoise()
        outcomes = [noise.delivers(0, 1, rng) for _ in range(20000)]
        rate = 1 - sum(outcomes) / len(outcomes)
        assert rate == pytest.approx(noise.expected_loss_rate(), abs=0.01)

    def test_casino_reset_clears_state(self):
        rng = random.Random(0)
        noise = CasinoLabNoise()
        for _ in range(100):
            noise.delivers(0, 1, rng)
        noise.reset()
        assert noise._bad == {}

    def test_casino_validation(self):
        with pytest.raises(ConfigurationError):
            CasinoLabNoise(good_loss=1.5)
        with pytest.raises(ConfigurationError):
            CasinoLabNoise(p_good_to_bad=0.0)

    def test_casino_is_bursty(self):
        """Consecutive losses should exceed the independent-loss rate."""
        rng = random.Random(3)
        noise = CasinoLabNoise()
        outcomes = [not noise.delivers(0, 1, rng) for _ in range(20000)]
        losses = sum(outcomes)
        pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        p_loss = losses / len(outcomes)
        p_pair = pairs / (len(outcomes) - 1)
        assert p_pair > p_loss * p_loss  # positive correlation
