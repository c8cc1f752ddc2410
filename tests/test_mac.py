"""Unit tests for the TDMA frame arithmetic and driver."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.mac import TdmaDriver, TdmaFrame
from repro.simulator import Simulator
from repro.topology import LineTopology


class TestFrame:
    def test_paper_defaults(self):
        f = TdmaFrame()
        assert f.num_slots == 100
        assert f.slot_duration == 0.05
        assert f.dissemination_duration == 0.5
        # Table I self-consistency: period = source period = 5.5 s.
        assert f.period_length == pytest.approx(5.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TdmaFrame(num_slots=0)
        with pytest.raises(ConfigurationError):
            TdmaFrame(slot_duration=0)
        with pytest.raises(ConfigurationError):
            TdmaFrame(dissemination_duration=-1)

    def test_period_start(self):
        f = TdmaFrame(num_slots=10, slot_duration=0.1, dissemination_duration=0.5)
        assert f.period_start(0) == 0.0
        assert f.period_start(3) == pytest.approx(4.5)

    def test_slot_start(self):
        f = TdmaFrame(num_slots=10, slot_duration=0.1, dissemination_duration=0.5)
        assert f.slot_start(0, 1) == pytest.approx(0.5)
        assert f.slot_start(0, 10) == pytest.approx(1.4)
        assert f.slot_start(2, 1) == pytest.approx(3.5)

    def test_slot_start_bounds(self):
        f = TdmaFrame(num_slots=10)
        with pytest.raises(ConfigurationError):
            f.slot_start(0, 0)
        with pytest.raises(ConfigurationError):
            f.slot_start(0, 11)
        with pytest.raises(ConfigurationError):
            f.period_start(-1)

    def test_fits(self):
        f = TdmaFrame(num_slots=10)
        assert f.fits(1) and f.fits(10)
        assert not f.fits(0) and not f.fits(11)


class FakeClient:
    def __init__(self, node):
        self.node = node
        self.periods = []
        self.slots = []

    def on_period_start(self, period, time):
        self.periods.append((period, time))

    def on_slot(self, period, slot, time):
        self.slots.append((period, slot, time))


class TestDriver:
    def make(self, num_slots=4):
        topo = LineTopology(3)
        sim = Simulator(topo)
        frame = TdmaFrame(num_slots=num_slots, slot_duration=0.1, dissemination_duration=0.2)
        return sim, TdmaDriver(sim, frame), frame

    def test_slot_events_fire_at_right_times(self):
        sim, driver, frame = self.make()
        a, b = FakeClient(0), FakeClient(1)
        driver.register(a, 2)
        driver.register(b, 4)
        driver.start(stop_after=2)
        sim.run()
        assert [s[:2] for s in a.slots] == [(0, 2), (1, 2)]
        assert a.slots[0][2] == pytest.approx(frame.slot_start(0, 2))
        assert b.slots[1][2] == pytest.approx(frame.slot_start(1, 4))

    def test_period_start_delivered_to_all(self):
        sim, driver, _ = self.make()
        a, b = FakeClient(0), FakeClient(1)
        driver.register(a, 1)
        driver.register(b, None)  # listen-only
        driver.start(stop_after=3)
        sim.run()
        assert [p for p, _ in a.periods] == [0, 1, 2]
        assert [p for p, _ in b.periods] == [0, 1, 2]
        assert b.slots == []

    def test_duplicate_registration_rejected(self):
        _, driver, _ = self.make()
        driver.register(FakeClient(0), 1)
        with pytest.raises(SimulationError, match="already registered"):
            driver.register(FakeClient(0), 2)

    def test_slot_out_of_frame_rejected(self):
        _, driver, _ = self.make(num_slots=4)
        with pytest.raises(SimulationError, match="does not fit"):
            driver.register(FakeClient(0), 5)

    def test_double_start_rejected(self):
        sim, driver, _ = self.make()
        driver.start(stop_after=1)
        with pytest.raises(SimulationError, match="already running"):
            driver.start()

    def test_stop_after_bounds_periods(self):
        sim, driver, _ = self.make()
        a = FakeClient(0)
        driver.register(a, 1)
        driver.start(stop_after=2)
        sim.run()
        assert len(a.periods) == 2
