"""The per-seed fast path: tables built once per topology or schedule,
and the kept-alive HTTP channel.

Simulation invariants (runs stay bit-identical):

* ``Schedule.children_of`` answers from a lazily built index that must
  equal the O(n) definition on any schedule, derived ones included;
* the fast kernel's audibility row is one intersection
  (``audible_set(location) ∩ senders``), which must equal the scan over
  every sender — audibility is symmetric;
* a block draw over a stretch of broadcasts consumes the RNG stream
  and the per-link state exactly as ``delivers_block`` per broadcast
  does;
* each run resets the noise model first: two back-to-back fast runs
  sharing one ``CasinoLabNoise`` equal two legacy runs sharing one
  (the reset-order guard);
* a third-party ``NoiseModel`` overriding only ``delivers`` runs on the
  default block draw and still matches the legacy engine.

Transport invariants (one kept-alive connection per client thread):

* sequential requests reuse one server connection, with no
  delayed-ACK stall per request;
* a restarted service is reached again without the caller noticing;
* after ``drain()`` a request fails exactly as a refused connect does.
"""

from __future__ import annotations

import random
import re
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app import FAST_KERNEL, LEGACY_KERNEL, run_operational_phase
from repro.core import Schedule
from repro.das import centralized_das_schedule
from repro.errors import ConfigurationError
from repro.experiments import RetryPolicy
from repro.service import (
    ServiceClient,
    ServiceError,
    SweepService,
    WorkerTransport,
)
from repro.simulator import (
    BernoulliNoise,
    CasinoLabNoise,
    IdealNoise,
    Simulator,
)
from repro.simulator.noise import NoiseModel
from repro.telemetry import default_registry
from repro.topology import GridTopology, random_geometric_topology

ONE_SHOT = RetryPolicy(max_attempts=1)


# ----------------------------------------------------------------------
# Schedule children index
# ----------------------------------------------------------------------
@st.composite
def schedules(draw):
    """Random valid schedules: sink 0 on the top slot, every other node
    on a lower slot with an arbitrary parent (or none)."""
    size = draw(st.integers(min_value=1, max_value=25))
    nodes = list(range(size))
    top = size + 1
    slots = {0: top}
    parents = {}
    for node in nodes[1:]:
        slots[node] = draw(st.integers(min_value=1, max_value=top - 1))
        parents[node] = draw(st.one_of(st.none(), st.sampled_from(nodes)))
    return Schedule(slots, parents, 0)


def _children_by_scan(schedule, node):
    return tuple(sorted(c for c, p in schedule.parents().items() if p == node))


class TestChildrenIndex:
    @given(schedule=schedules())
    @settings(max_examples=60, deadline=None)
    def test_index_equals_the_linear_definition(self, schedule):
        for derived in (schedule, schedule.compressed()):
            for node in derived.nodes:
                assert derived.children_of(node) == _children_by_scan(derived, node)

    @given(schedule=schedules(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_reparenting_rebuilds_the_index(self, schedule, data):
        nodes = schedule.nodes
        schedule.children_of(nodes[0])  # build the index first
        node = data.draw(st.sampled_from(nodes))
        if node == schedule.sink:
            return
        parent = data.draw(st.one_of(st.none(), st.sampled_from(nodes)))
        moved = Schedule(
            schedule.slots(), {**schedule.parents(), node: parent}, schedule.sink
        )
        for other in moved.nodes:
            assert moved.children_of(other) == _children_by_scan(moved, other)


# ----------------------------------------------------------------------
# Audibility rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "topology",
    [GridTopology(7), random_geometric_topology(30, 100.0, 30.0, seed=4)],
    ids=["grid7", "random30"],
)
def test_symmetric_audibility_row_equals_the_scan(topology):
    radio = Simulator(topology).radio
    rng = random.Random(11)
    senders = frozenset(n for n in topology.nodes if rng.random() < 0.7)
    for location in topology.nodes:
        scanned = frozenset(s for s in senders if location in radio.audible_set(s))
        assert radio.audible_set(location) & senders == scanned


# ----------------------------------------------------------------------
# Block draws
# ----------------------------------------------------------------------
def _runs(kernel, noise, seeds, grid):
    """Back-to-back runs on one noise object; results and trace counts."""
    outcomes = []
    for seed in seeds:
        traces: list = []
        schedule = centralized_das_schedule(grid, seed=seed)
        result = run_operational_phase(
            grid, schedule, seed=seed, noise=noise, kernel=kernel, trace_out=traces
        )
        outcomes.append((result, traces[0].counts()))
    return outcomes


BLOCK_MODELS = [
    ("ideal", IdealNoise),
    ("bernoulli", lambda: BernoulliNoise(0.2)),
    ("casino-hot", lambda: CasinoLabNoise(p_good_to_bad=0.4, p_bad_to_good=0.3)),
]


@pytest.mark.parametrize(
    "factory", [m[1] for m in BLOCK_MODELS], ids=[m[0] for m in BLOCK_MODELS]
)
def test_block_draws_consume_the_per_broadcast_stream(factory):
    """Stretch losses, RNG consumption and per-link state match
    ``delivers_block`` per broadcast, also when the two forms
    interleave on one link."""
    per_broadcast, stretched = factory(), factory()
    rng_broadcast, rng_stretched = random.Random(5), random.Random(5)
    spans = [(sender, tuple(range(sender, sender + 4))) for sender in range(6)]
    for step in range(400):
        expected = []
        for lane_base, (sender, receivers) in zip(range(0, 24, 4), spans):
            flags = per_broadcast.delivers_block(sender, receivers, rng_broadcast)
            expected.extend(lane_base + i for i, flag in enumerate(flags) if not flag)
        if step % 7 == 3:
            got = []
            for lane_base, (sender, receivers) in zip(range(0, 24, 4), spans):
                flags = stretched.delivers_block(sender, receivers, rng_stretched)
                got.extend(lane_base + i for i, flag in enumerate(flags) if not flag)
        else:
            got = stretched.draw_block(spans, rng_stretched)
        assert got == expected
    assert rng_broadcast.random() == rng_stretched.random()


def test_back_to_back_fast_runs_share_one_noise_object():
    """The reset-order guard: each run resets the noise model before
    its first draw, so a reused noise object carries no state between
    runs."""
    grid = GridTopology(7)
    hot = dict(p_good_to_bad=0.3, p_bad_to_good=0.3)
    legacy = _runs(LEGACY_KERNEL, CasinoLabNoise(**hot), (1, 2, 3), grid)
    fast = _runs(FAST_KERNEL, CasinoLabNoise(**hot), (1, 2, 3), grid)
    assert fast == legacy


class _DeliversOnly(NoiseModel):
    """A third-party model: per-link burst state, only ``delivers``."""

    def __init__(self):
        self.state = {}

    def delivers(self, sender, receiver, rng):
        link = (sender, receiver)
        burst = self.state.get(link, 0)
        self.state[link] = (burst + 1) % 3 if rng.random() < 0.3 else 0
        return rng.random() >= (0.6 if burst else 0.05)

    def reset(self):
        self.state.clear()


def test_delivers_only_model_matches_legacy_on_the_default_block_draw(monkeypatch):
    stretches = []
    original = NoiseModel.draw_block

    def spy(self, spans, rng):
        stretches.append(len(spans))
        return original(self, spans, rng)

    monkeypatch.setattr(NoiseModel, "draw_block", spy)
    grid = GridTopology(7)
    legacy = _runs(LEGACY_KERNEL, _DeliversOnly(), (5, 6), grid)
    assert not stretches
    fast = _runs(FAST_KERNEL, _DeliversOnly(), (5, 6), grid)
    assert stretches  # the kernel ran on the default block draw
    assert fast == legacy


# ----------------------------------------------------------------------
# Kept-alive transport
# ----------------------------------------------------------------------
def _connections() -> float:
    return default_registry().counter("service.connections")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestKeepAlive:
    def test_sequential_requests_reuse_one_connection(self, tmp_path):
        service = SweepService(tmp_path / "svc", port=0, remote=True).start()
        try:
            client = ServiceClient(service.url)
            before = _connections()
            started = time.monotonic()
            for _ in range(50):
                assert client.health() == {"ok": True}
            elapsed = time.monotonic() - started
            assert _connections() - before == 1
            # One 40 ms delayed-ACK stall per request would take 2 s.
            assert elapsed < 1.0
        finally:
            service.drain()

    def test_worker_uploads_reuse_one_connection(self, tmp_path):
        service = SweepService(tmp_path / "svc", port=0, remote=True).start()
        try:
            transport = WorkerTransport(service.url, retry=ONE_SHOT)
            before = _connections()
            for _ in range(20):
                assert transport.post("/shards/claim", {"worker": "w"}) == {
                    "shard": None
                }
            assert _connections() - before == 1
        finally:
            service.drain()

    def test_restarted_service_is_reached_transparently(self, tmp_path):
        port = _free_port()
        service = SweepService(tmp_path / "svc", port=port, remote=True).start()
        # One attempt: only the channel's own stale-connection retry may
        # bridge the restart.
        client = WorkerTransport(service.url, retry=ONE_SHOT)
        try:
            assert client.health() == {"ok": True}
        finally:
            service.drain()
        service = SweepService(tmp_path / "svc", port=port, remote=True).start()
        try:
            assert client.health() == {"ok": True}
        finally:
            service.drain()

    def test_request_after_drain_fails_like_a_refused_connect(self, tmp_path):
        port = _free_port()
        service = SweepService(tmp_path / "svc", port=port, remote=True).start()
        url = service.url
        transport = WorkerTransport(url, retry=ONE_SHOT)
        try:
            assert transport.post("/shards/claim", {"worker": "w"}) == {
                "shard": None
            }
        finally:
            service.drain()
        with pytest.raises(ServiceError) as after_drain:
            transport.post("/shards/claim", {"worker": "w"})
        with pytest.raises(ServiceError) as refused:
            WorkerTransport(url, retry=ONE_SHOT).post(
                "/shards/claim", {"worker": "w"}
            )
        assert after_drain.value.status == refused.value.status == 0
        assert str(after_drain.value) == str(refused.value)

    @staticmethod
    def _replies(service, request: bytes):
        """Send raw bytes on one connection; every status line the
        server sends back before it closes the connection."""
        port = int(service.url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(request)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        return re.findall(rb"HTTP/1\.1 (\d{3}) ", data)

    @pytest.mark.parametrize(
        "head, body",
        [
            (b"Transfer-Encoding: chunked", b"5\r\nhello\r\n0\r\n\r\n"),
            (b"Content-Length: twelve", b"{}"),
            (b"Content-Length: -1", b"{}"),
        ],
        ids=["chunked", "unparsable-length", "negative-length"],
    )
    def test_unread_body_closes_the_connection(self, tmp_path, head, body):
        """A POST body the handler cannot read to its end is answered
        once and the connection closed — the leftover bytes are never
        parsed as a next request."""
        service = SweepService(tmp_path / "svc", port=0, remote=True).start()
        try:
            second = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            request = b"POST /jobs HTTP/1.1\r\nHost: x\r\n" + head + b"\r\n\r\n"
            statuses = self._replies(service, request + body + second)
            assert len(statuses) == 1 and statuses[0] in (b"400", b"411")
        finally:
            service.drain()

    def test_well_formed_requests_share_the_connection(self, tmp_path):
        service = SweepService(tmp_path / "svc", port=0, remote=True).start()
        try:
            post = b"POST /shards/claim HTTP/1.1\r\nHost: x\r\nContent-Length: 15\r\n\r\n"
            last = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            statuses = self._replies(service, post + b'{"worker": "w"}' + last)
            assert statuses == [b"200", b"200"]
        finally:
            service.drain()


class TestServiceUrl:
    @pytest.mark.parametrize(
        "url",
        ["ftp://127.0.0.1:8080", "127.0.0.1:8080", "localhost", "http://", "http://h:port"],
    )
    @pytest.mark.parametrize("make", [ServiceClient, WorkerTransport])
    def test_unusable_urls_are_rejected_up_front(self, make, url):
        with pytest.raises(ConfigurationError):
            make(url)

    def test_https_is_not_downgraded_to_cleartext(self, tmp_path):
        """An https URL speaks TLS: against a plain-HTTP service the
        handshake fails instead of the request going out in the clear."""
        service = SweepService(tmp_path / "svc", port=0, remote=True).start()
        try:
            url = service.url.replace("http://", "https://")
            with pytest.raises(ServiceError) as failed:
                ServiceClient(url, token="secret").health()
            assert failed.value.status == 0
        finally:
            service.drain()
