"""Unit tests for the discrete event engine."""

import gc

import pytest

from repro.errors import SimulationError
from repro.simulator import EventQueue, Process, Simulator
from repro.topology import LineTopology


def _armed(process, name):
    """Whether ``process``'s timer ``name`` is set and has not fired."""
    handle = process._timers.get(name)
    return handle is not None and not handle.cancelled


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, fired.append, (2,))
        q.push(1.0, fired.append, (1,))
        q.push(3.0, fired.append, (3,))
        while not q.empty:
            q.pop().fire()
        assert fired == [1, 2, 3]

    def test_fifo_at_equal_times(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.push(1.0, fired.append, (i,))
        while not q.empty:
            q.pop().fire()
        assert fired == [0, 1, 2, 3, 4]

    def test_cancellation(self):
        q = EventQueue()
        fired = []
        handle = q.push(1.0, fired.append, (1,))
        q.push(2.0, fired.append, (2,))
        handle.cancel()
        assert handle.cancelled
        while not q.empty:
            q.pop().fire()
        assert fired == [2]

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        handle = q.push(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert q.empty

    def test_len_counts_live_events(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        h.cancel()
        assert len(q) == 1

    def test_len_is_tracked_through_pop_and_clear(self):
        q = EventQueue()
        handles = [q.push(float(i), lambda: None) for i in range(4)]
        q.pop()
        assert len(q) == 3
        handles[1].cancel()
        assert len(q) == 2
        q.clear()
        assert len(q) == 0
        assert q.empty

    def test_cancel_after_fire_keeps_count_consistent(self):
        q = EventQueue()
        h = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.pop()           # fires the event behind h
        h.cancel()        # late cancel of an already-popped event
        h.cancel()        # ... twice
        assert len(q) == 1
        q.pop()
        assert len(q) == 0

    def test_cancelled_events_do_not_resurface(self):
        q = EventQueue()
        for i in range(3):
            q.push(1.0, lambda: None)
        head = q.push(0.5, lambda: None)
        head.cancel()
        assert q.peek_time() == 1.0
        assert len(q) == 3

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            EventQueue().push(-1.0, lambda: None)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError, match="empty"):
            EventQueue().pop()

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        assert q.peek_time() == 5.0


class TestSimulator:
    def topo(self):
        return LineTopology(3)

    def test_clock_advances(self):
        sim = Simulator(self.topo())
        times = []
        sim.schedule_at(1.0, lambda: times.append(sim.now))
        sim.schedule_at(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.5]
        assert sim.now == 2.5

    def test_run_until_is_inclusive_and_advances_clock(self):
        sim = Simulator(self.topo())
        fired = []
        sim.schedule_at(1.0, fired.append, (1,))
        sim.schedule_at(5.0, fired.append, (5,))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_schedule_after(self):
        sim = Simulator(self.topo())
        result = []
        sim.schedule_at(2.0, lambda: sim.schedule_after(1.5, lambda: result.append(sim.now)))
        sim.run()
        assert result == [3.5]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(self.topo())
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator(self.topo())
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule_after(-1.0, lambda: None)

    def test_max_events(self):
        sim = Simulator(self.topo())
        fired = []
        for i in range(10):
            sim.schedule_at(float(i), fired.append, (i,))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_request_stop(self):
        sim = Simulator(self.topo())
        fired = []

        def stopper():
            fired.append("stop")
            sim.request_stop()

        sim.schedule_at(1.0, stopper)
        sim.schedule_at(2.0, fired.append, ("late",))
        sim.run()
        assert fired == ["stop"]

    def test_deterministic_rng(self):
        a = Simulator(self.topo(), seed=42).rng.random()
        b = Simulator(self.topo(), seed=42).rng.random()
        assert a == b

    def test_step(self):
        sim = Simulator(self.topo())
        sim.schedule_at(1.0, lambda: None)
        assert sim.step()
        assert not sim.step()

    def test_process_registration(self):
        sim = Simulator(self.topo())
        proc = Process(0)
        sim.register_process(proc)
        assert sim._processes[0] is proc
        with pytest.raises(SimulationError, match="already registered"):
            sim.register_process(Process(0))

    def test_unknown_node_process_rejected(self):
        sim = Simulator(self.topo())
        with pytest.raises(SimulationError, match="unknown node"):
            sim.register_process(Process(99))

    def test_processes_started_in_node_order(self):
        sim = Simulator(self.topo())
        order = []

        class P(Process):
            def start(self):
                order.append(self.node)

        for n in [2, 0, 1]:
            sim.register_process(P(n))
        sim.schedule_at(0.0, lambda: None)
        sim.run()
        assert order == [0, 1, 2]

    def test_close_breaks_cycles_and_is_idempotent(self):
        gc.collect()
        gc.disable()
        try:
            sim = Simulator(self.topo())
            procs = [Process(n) for n in range(3)]
            for proc in procs:
                sim.register_process(proc)
                proc.set_timer("tick", 5.0)
                proc.broadcast("hello")
            sim.run(until=1.0)
            sim.close()
            sim.close()
            assert sim.trace.count("send") == 3
            assert len(sim._queue) == 0
            assert not sim.step()  # nothing restarts after close
            assert not _armed(procs[0], "tick")
            del sim, procs, proc
            assert gc.collect() == 0
        finally:
            gc.enable()
        with pytest.raises(SimulationError, match="not registered"):
            Process(0).sim


class TestProcessTimers:
    def test_timer_fires(self):
        sim = Simulator(LineTopology(3))
        fired = []

        class P(Process):
            def start(self):
                self.set_timer("tick", 1.5)

            def on_timer(self, name, time):
                fired.append((name, time))

        sim.register_process(P(0))
        sim.run()
        assert fired == [("tick", 1.5)]

    def test_timer_rearm_replaces(self):
        sim = Simulator(LineTopology(3))
        fired = []

        class P(Process):
            def start(self):
                self.set_timer("tick", 1.0)
                self.set_timer("tick", 3.0)  # replaces

            def on_timer(self, name, time):
                fired.append(time)

        sim.register_process(P(0))
        sim.run()
        assert fired == [3.0]

    def test_cancel_timer(self):
        sim = Simulator(LineTopology(3))
        fired = []

        class P(Process):
            def start(self):
                self.set_timer("tick", 1.0)
                self.cancel_timer("tick")

            def on_timer(self, name, time):
                fired.append(time)

        sim.register_process(P(0))
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert fired == []

    def test_timer_pending(self):
        sim = Simulator(LineTopology(3))
        states = []

        class P(Process):
            def start(self):
                self.set_timer("tick", 1.0)
                states.append(_armed(self, "tick"))

            def on_timer(self, name, time):
                states.append(_armed(self, "tick"))

        sim.register_process(P(0))
        sim.run()
        assert states == [True, False]

    def test_unbound_process_rejects_actions(self):
        p = Process(0)
        with pytest.raises(SimulationError, match="not registered"):
            p.set_timer("x", 1.0)

    def test_double_bind_rejected(self):
        sim = Simulator(LineTopology(3))
        p = Process(0)
        sim.register_process(p)
        with pytest.raises(SimulationError, match="already registered"):
            p.bind(sim)
