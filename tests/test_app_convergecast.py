"""Direct unit tests for the convergecast node process."""

import pytest

from repro.app import AggregateMessage, ConvergecastNodeProcess
from repro.simulator import Simulator
from repro.topology import LineTopology


def make_process(node=1, slot=2, parent=2, is_sink=False, is_source=False,
                 children=None):
    line = LineTopology(5)
    sim = Simulator(line)
    proc = ConvergecastNodeProcess(
        node,
        slot=slot,
        parent=parent,
        is_sink=is_sink,
        is_source=is_source,
        children=children or set(),
    )
    sim.register_process(proc)
    return sim, proc


def msg(sender, period, origins, slot=1):
    return AggregateMessage(
        sender=sender, period=period, slot=slot, origins=frozenset(origins)
    )


class TestAggregation:
    def test_own_reading_each_period(self):
        _, proc = make_process(node=1, children={0})
        proc.on_period_start(0, 0.0)
        assert proc._pending == {1}

    def test_child_messages_folded(self):
        _, proc = make_process(node=1, children={0})
        proc.on_period_start(0, 0.0)
        proc.on_receive(0, msg(0, 0, {0}), 0.5)
        assert proc._pending == {0, 1}

    def test_non_child_messages_ignored(self):
        _, proc = make_process(node=1, children={0})
        proc.on_period_start(0, 0.0)
        proc.on_receive(2, msg(2, 0, {2, 3}), 0.5)
        assert proc._pending == {1}

    def test_stale_period_ignored(self):
        _, proc = make_process(node=1, children={0})
        proc.on_period_start(3, 0.0)
        proc.on_receive(0, msg(0, 2, {0}), 0.5)  # old frame
        assert proc._pending == {1}

    def test_sink_accepts_children_and_records(self):
        _, sink = make_process(node=4, slot=None, parent=None, is_sink=True,
                               children={3})
        sink.on_period_start(0, 0.0)
        sink.on_receive(3, msg(3, 0, {0, 1, 2, 3}), 0.5)
        sink.on_period_start(1, 5.5)
        assert sink.collected_by_period[0] == 4

    def test_finish_flushes_last_period(self):
        _, sink = make_process(node=4, slot=None, parent=None, is_sink=True,
                               children={3})
        sink.on_period_start(0, 0.0)
        sink.on_receive(3, msg(3, 0, {3}), 0.5)
        sink.finish(0)
        assert sink.collected_by_period[0] == 1


class TestTransmission:
    def test_broadcast_carries_pending_origins(self):
        sim, proc = make_process(node=1, children={0})
        sent = []
        sim.radio.broadcast = lambda sender, message: sent.append(message)
        proc.on_period_start(0, 0.0)
        proc.on_receive(0, msg(0, 0, {0}), 0.4)
        proc.on_slot(0, 2, 0.6)
        assert len(sent) == 1
        assert sent[0].origins == frozenset({0, 1})
        assert proc.messages_sent == 1

    def test_sink_never_transmits(self):
        sim, sink = make_process(node=4, slot=None, parent=None, is_sink=True)
        sent = []
        sim.radio.broadcast = lambda sender, message: sent.append(message)
        sink.on_period_start(0, 0.0)
        sink.on_slot(0, 1, 0.6)
        assert sent == []
        assert sink.messages_sent == 0

    def test_non_aggregate_messages_ignored(self):
        _, proc = make_process(node=1)
        proc.on_period_start(0, 0.0)
        proc.on_receive(0, "not-an-aggregate", 0.5)  # must not raise
        assert proc._pending == {1}


class TestWiring:
    def test_properties(self):
        _, proc = make_process(node=1, slot=7, is_source=True)
        assert proc.slot == 7
        assert proc.is_source and not proc.is_sink
