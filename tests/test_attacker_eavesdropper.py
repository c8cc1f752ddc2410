"""Direct unit tests for the runtime EavesdropperAgent."""

from repro.attacker import AttackerSpec, EavesdropperAgent, paper_attacker
from repro.simulator import ATTACKER_MOVE, CAPTURE, Simulator
from repro.topology import LineTopology


def make_agent(spec=None, start=4, source=0, slots=None):
    line = LineTopology(5)
    sim = Simulator(line, seed=0)
    slots = slots or {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    captured = []
    agent = EavesdropperAgent(
        sim,
        spec or paper_attacker(),
        start=start,
        source=source,
        slot_lookup=lambda n: slots[n],
        on_capture=captured.append,
    )
    return sim, agent, captured


class TestOverhear:
    def test_moves_on_first_message(self):
        sim, agent, _ = make_agent()
        agent.on_period_start(0, 0.0)
        agent.overhear(3, "data", 1.0)
        assert agent.location == 3
        assert agent.path == (4, 3)
        assert sim.trace.count(ATTACKER_MOVE) == 1

    def test_single_move_per_period(self):
        sim, agent, _ = make_agent()
        agent.on_period_start(0, 0.0)
        agent.overhear(3, "a", 1.0)
        agent.overhear(2, "b", 1.5)  # M = 1 exhausted
        assert agent.location == 3

    def test_next_period_allows_next_move(self):
        sim, agent, _ = make_agent()
        agent.on_period_start(0, 0.0)
        agent.overhear(3, "a", 1.0)
        agent.on_period_start(1, 5.5)
        agent.overhear(2, "b", 6.0)
        assert agent.location == 2
        assert agent.path == (4, 3, 2)

    def test_r2_buffers_before_moving(self):
        spec = AttackerSpec(messages_per_move=2)
        sim, agent, _ = make_agent(spec=spec)
        agent.on_period_start(0, 0.0)
        agent.overhear(3, "a", 1.0)
        assert agent.location == 4  # still waiting for a second message
        agent.overhear(2, "b", 1.2)
        assert agent.location == 3  # earliest of the two

    def test_capture_fires_callback_and_trace(self):
        sim, agent, captured = make_agent(start=1)
        agent.on_period_start(0, 0.0)
        agent.overhear(0, "data", 1.0)
        assert agent.captured
        assert agent.capture_time == 1.0
        assert agent.capture_period == 0
        assert captured == [1.0]
        assert sim.trace.count(CAPTURE) == 1

    def test_no_hearing_after_capture(self):
        sim, agent, captured = make_agent(start=1)
        agent.on_period_start(0, 0.0)
        agent.overhear(0, "data", 1.0)
        agent.overhear(2, "later", 2.0)
        assert agent.location == 0  # stayed at the source
        assert len(captured) == 1

    def test_unknown_sender_slot_tolerated(self):
        sim, agent, _ = make_agent(slots={3: 4})  # only node 3 known
        agent.on_period_start(0, 0.0)
        agent.overhear(99, "mystery", 1.0)  # lookup raises -> slot 0
        assert agent.location in (4, 99)


class TestIntrospection:
    def test_initial_state(self):
        _, agent, _ = make_agent()
        assert agent.location == 4
        assert not agent.captured
        assert agent.capture_time is None
        assert agent.capture_period is None
        assert agent.path == (4,)

    def test_state_exposes_figure1_machine(self):
        _, agent, _ = make_agent()
        assert agent.state.spec.r == 1
        assert agent.state.start == 4
