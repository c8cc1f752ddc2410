"""Event-driven dispatch: the service wakes on events instead of polling.

The contracts under test:

* the lease board is a condition: a claim held with ``wait`` gets a
  shard the moment one is published, re-queued, released or revoked,
  wakes at a backing-off shard's ``ready_at``, returns ``None`` once its
  wait runs out, and returns at once when the service drains;
  :meth:`ShardBoard.claim` itself never blocks;
* the scheduler wakes when its job finishes or halts, and the
  dispatcher wakes on a submission and on a freed job slot — so a
  service with a long ``poll_interval`` still serves a short job fast;
* ``GET /jobs/<id>?wait=`` holds until the job changes state, and
  :meth:`ServiceClient.wait` uses it;
* a worker never spins: after an empty claim it sleeps what is left of
  its poll interval, however fast the service answered.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import (
    FaultPlan,
    RetryPolicy,
    ServiceHalt,
    SweepCheckpoint,
    result_to_dict,
)
from repro.scenarios import ScenarioRunner, get_scenario
from repro.service import (
    DONE,
    QUEUED,
    RUNNING,
    JobRecord,
    ServiceClient,
    ServiceError,
    ShardBoard,
    ShardWorker,
    SweepService,
    TransportError,
    WorkerTransport,
    job_key,
    lower_job,
)

SEEDS = 4
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)
#: A backoff long enough to tell "woke at ready_at" from "woke at once"
#: (the ladder's jitter puts the delay in [0.2, 0.4] s).
SLOW_RETRY = RetryPolicy(max_attempts=3, base_delay=0.4, max_delay=0.4)
#: Longer than any wake-up under test: a wait that runs this long means
#: a notification was lost.
LONG_WAIT = 5.0


@pytest.fixture(scope="module")
def result_docs():
    outcome = ScenarioRunner().run("paper-baseline", seeds=SEEDS)
    return {seed: result_to_dict(r) for seed, r in enumerate(outcome.results)}


def open_job(board, retry=FAST_RETRY):
    """Publish one paper-baseline job on ``board``; returns its id."""
    spec = get_scenario("paper-baseline")
    topology, config = lower_job(spec, repeats=SEEDS)
    key = board.checkpoint.key_for(topology, config)
    job_id = job_key(spec, config.repeats, config.base_seed, None, None)
    board.open_job(
        job_id, spec.to_json(indent=None), config.repeats, config.base_seed,
        None, None, key, retry,
        [tuple(range(SEEDS))], set(),
    )
    return job_id


class Held:
    """One :meth:`ShardBoard.hold_claim` running on its own thread."""

    def __init__(self, board, wait=LONG_WAIT, stop=None, worker="w2"):
        self.stop = stop if stop is not None else threading.Event()
        self.claim = None
        self.returned_at = None
        self._thread = threading.Thread(
            target=self._run, args=(board, worker, wait), daemon=True
        )
        self._thread.start()
        time.sleep(0.1)  # parked in the wait before the event under test

    def _run(self, board, worker, wait):
        self.claim = board.hold_claim(worker, wait, self.stop)
        self.returned_at = time.monotonic()

    def join(self):
        self._thread.join(LONG_WAIT + 5.0)
        assert not self._thread.is_alive()
        return self.claim


@pytest.fixture
def board(tmp_path):
    return ShardBoard(SweepCheckpoint(tmp_path / "checkpoints"))


# ----------------------------------------------------------------------
# The board's condition
# ----------------------------------------------------------------------
class TestHeldClaims:
    def test_gets_a_shard_as_soon_as_a_job_is_published(self, board):
        held = Held(board)
        published = time.monotonic()
        job_id = open_job(board)
        claim = held.join()
        assert claim is not None and claim["job"] == job_id
        assert held.returned_at - published < 0.5

    def test_returns_none_after_its_wait_on_an_empty_board(self, board):
        started = time.monotonic()
        assert board.hold_claim("w", 0.3, threading.Event()) is None
        assert 0.3 <= time.monotonic() - started < 2.0

    def test_returns_at_once_when_stopped(self, board):
        held = Held(board)
        stopped = time.monotonic()
        held.stop.set()
        board.wake()
        assert held.join() is None
        assert held.returned_at - stopped < 0.5

    def test_claim_never_blocks(self, board):
        started = time.monotonic()
        assert board.claim("w") is None  # empty board
        job_id = open_job(board, retry=SLOW_RETRY)
        lease = board.claim("w1")
        board.fail_shard(job_id, lease["shard"], "w1", "boom")
        # Only a backing-off shard is left: still no wait.
        assert board.claim("w2", now=time.monotonic()) is None
        assert time.monotonic() - started < 0.2

    @pytest.mark.parametrize("how", ["fail_shard", "fail_worker"])
    def test_wakes_at_a_failed_shards_ready_at(self, board, how):
        """A failure re-queues the shard with backoff; the held claim
        must learn the new ``ready_at`` and wake then, not at the end of
        its wait."""
        job_id = open_job(board, retry=SLOW_RETRY)
        lease = board.claim("w1")
        held = Held(board)
        failed = time.monotonic()
        if how == "fail_shard":
            board.fail_shard(job_id, lease["shard"], "w1", "boom")
        else:
            board.fail_worker("w1", "crash", "WorkerDied")
        claim = held.join()
        assert claim is not None and claim["attempt"] == 2
        assert 0.15 <= held.returned_at - failed < 1.0

    def test_wakes_at_the_ready_at_of_a_shard_already_backing_off(
        self, board
    ):
        job_id = open_job(board, retry=SLOW_RETRY)
        lease = board.claim("w1")
        board.fail_shard(job_id, lease["shard"], "w1", "boom")
        started = time.monotonic()
        claim = board.hold_claim("w2", LONG_WAIT, threading.Event())
        assert claim is not None
        assert time.monotonic() - started < 1.0

    def test_gets_a_released_shard(self, board, result_docs):
        job_id = open_job(board)
        lease = board.claim("w1")
        board.record_seed(job_id, lease["shard"], "w1", 0, result_docs[0])
        held = Held(board)
        released = time.monotonic()
        board.release_shard(job_id, lease["shard"], "w1")
        claim = held.join()
        assert claim is not None and claim["seeds"] == [1, 2, 3]
        assert held.returned_at - released < 0.5

    def test_gets_a_revoked_shard(self, board):
        open_job(board)
        board.claim("w1")
        held = Held(board)
        revoked = time.monotonic()
        assert board.revoke_stale(0.0) == 1
        claim = held.join()
        assert claim is not None and claim["seeds"] == list(range(SEEDS))
        assert held.returned_at - revoked < 0.5


class TestWaitFinished:
    def test_wakes_on_the_last_seed(self, board, result_docs):
        job_id = open_job(board)
        lease = board.claim("w1")
        for seed in lease["seeds"][:-1]:
            board.record_seed(job_id, lease["shard"], "w1", seed, result_docs[seed])
        done = threading.Event()
        finished = []
        thread = threading.Thread(
            target=lambda: (
                finished.append(board.wait_finished(job_id, LONG_WAIT)),
                done.set(),
            ),
            daemon=True,
        )
        thread.start()
        time.sleep(0.1)
        last = lease["seeds"][-1]
        board.record_seed(job_id, lease["shard"], "w1", last, result_docs[last])
        assert done.wait(0.5)
        assert finished == [True]

    def test_wakes_on_a_halt(self, board, tmp_path):
        job_id = open_job(board)
        plan = FaultPlan(halt_seeds=(0,), marker_dir=str(tmp_path / "m"))
        woke = threading.Event()
        finished = []
        thread = threading.Thread(
            target=lambda: (
                finished.append(board.wait_finished(job_id, LONG_WAIT)),
                woke.set(),
            ),
            daemon=True,
        )
        thread.start()
        time.sleep(0.1)
        with plan.activated():
            assert board.claim("w1") is None  # the halt fired at the grant
        assert woke.wait(0.5)
        assert finished == [False]
        assert isinstance(board.halt_of(job_id), ServiceHalt)

    def test_times_out_on_an_unfinished_job(self, board):
        job_id = open_job(board)
        started = time.monotonic()
        assert board.wait_finished(job_id, 0.2) is False
        assert time.monotonic() - started >= 0.2


# ----------------------------------------------------------------------
# The service: held claims over HTTP, dispatch and status wake-ups
# ----------------------------------------------------------------------
def queued_record(repeats=3):
    spec = get_scenario("paper-baseline")
    return JobRecord(
        job_id=job_key(spec, repeats, 0, None, None),
        spec_json=spec.to_json(indent=None),
        repeats=repeats, base_seed=0, kernel=None, setup_kernel=None,
        state=QUEUED,
    )


def remote_service(tmp_path, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("shards_per_job", 1)
    return SweepService(tmp_path / "svc", port=0, remote=True, **kwargs).start()


def post_claim(url, payload, timeout=LONG_WAIT + 5.0):
    transport = WorkerTransport(url, timeout=timeout, retry=FAST_RETRY)
    started = time.monotonic()
    reply = transport.post("/shards/claim", payload)
    return reply, time.monotonic() - started


class TestHeldClaimsOverHttp:
    def test_held_claim_gets_a_submitted_jobs_shard(self, tmp_path):
        service = remote_service(tmp_path, poll_interval=2.0)
        try:
            replies = []
            thread = threading.Thread(
                target=lambda: replies.append(
                    post_claim(service.url, {"worker": "w", "wait": LONG_WAIT})
                ),
                daemon=True,
            )
            thread.start()
            time.sleep(0.2)
            record, _ = service.submit({"scenario": "paper-baseline", "seeds": 2})
            thread.join(LONG_WAIT + 5.0)
            (reply, elapsed), = replies
            assert reply["job"] == record.job_id
            assert elapsed < 1.0  # 0.2 s parked + dispatch, not LONG_WAIT
        finally:
            service.drain()

    def test_empty_board_answers_null_after_the_wait(self, tmp_path):
        service = remote_service(tmp_path)
        try:
            reply, elapsed = post_claim(service.url, {"worker": "w", "wait": 0.3})
            assert reply == {"shard": None}
            assert 0.3 <= elapsed < 2.0
        finally:
            service.drain()

    def test_drain_releases_a_held_claim(self, tmp_path):
        service = remote_service(tmp_path)
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(
                post_claim(service.url, {"worker": "w", "wait": LONG_WAIT})
            ),
            daemon=True,
        )
        thread.start()
        time.sleep(0.2)
        drained = time.monotonic()
        service.drain()
        thread.join(LONG_WAIT + 5.0)
        assert not thread.is_alive()
        (reply, _), = replies
        assert reply == {"shard": None}
        assert time.monotonic() - drained < 0.5

    def test_held_claim_wakes_at_a_backoff_shards_ready_at(self, tmp_path):
        service = remote_service(tmp_path, retry=SLOW_RETRY)
        try:
            service.submit({"scenario": "paper-baseline", "seeds": 2})
            lease, _ = post_claim(service.url, {"worker": "w1", "wait": LONG_WAIT})
            transport = WorkerTransport(service.url, retry=FAST_RETRY)
            transport.post(
                f"/shards/{lease['shard']}/fail",
                {"job": lease["job"], "worker": "w1", "error": "boom"},
            )
            again, elapsed = post_claim(
                service.url, {"worker": "w2", "wait": LONG_WAIT}
            )
            assert again["attempt"] == 2
            assert elapsed < 1.0  # the backoff, not LONG_WAIT
        finally:
            service.drain()

    @pytest.mark.parametrize("wait", ["soon", None, True, -1, [1]])
    def test_non_numeric_wait_is_400(self, tmp_path, wait):
        service = remote_service(tmp_path)
        try:
            with pytest.raises(TransportError) as excinfo:
                post_claim(service.url, {"worker": "w", "wait": wait})
            assert excinfo.value.status == 400
        finally:
            service.drain()


class TestDispatchWakeups:
    def test_slow_poll_still_serves_a_short_job_fast(self, tmp_path):
        """``poll_interval`` bounds waits; it must not pace a job."""
        service = SweepService(
            tmp_path / "svc", port=0, shard_workers=2, poll_interval=2.0,
            retry=FAST_RETRY,
        ).start()
        try:
            time.sleep(0.2)  # the dispatcher is parked on an empty queue
            started = time.monotonic()
            record, _ = service.submit({"scenario": "paper-baseline", "seeds": 2})
            while service.store.get(record.job_id).state != DONE:
                assert time.monotonic() - started < 10.0
                time.sleep(0.005)
            assert time.monotonic() - started < 1.0
        finally:
            service.drain()

    def test_a_freed_slot_starts_the_next_job(self, tmp_path):
        service = SweepService(
            tmp_path / "svc", port=0, shard_workers=2, poll_interval=2.0,
            retry=FAST_RETRY,
        ).start()
        try:
            service.submit({"scenario": "paper-baseline", "seeds": 2})
            time.sleep(1.0)  # the fleet is forked, the first job done
            started = time.monotonic()
            first, _ = service.submit({"scenario": "paper-baseline", "seeds": 3})
            second, _ = service.submit({"scenario": "paper-baseline", "seeds": 4})
            while service.store.get(second.job_id).state != DONE:
                assert time.monotonic() - started < 10.0
                time.sleep(0.005)
            assert service.store.get(first.job_id).state == DONE
            assert time.monotonic() - started < 1.5
        finally:
            service.drain()

    def test_client_wait_returns_when_the_job_finishes(self, tmp_path):
        service = SweepService(
            tmp_path / "svc", port=0, shard_workers=2, retry=FAST_RETRY
        ).start()
        try:
            client = ServiceClient(service.url)
            job = client.submit({"scenario": "paper-baseline", "seeds": 2})["job"]
            started = time.monotonic()
            assert client.wait(job, poll=5.0)["state"] == "done"
            assert time.monotonic() - started < 2.0
        finally:
            service.drain()

    def test_held_status_read_answers_on_a_change_or_after_its_wait(
        self, tmp_path
    ):
        service = remote_service(tmp_path)  # no workers: the job stays running
        try:
            client = ServiceClient(service.url)
            job = client.submit({"scenario": "paper-baseline", "seeds": 2})["job"]
            deadline = time.monotonic() + 5.0
            while client.status(job)["state"] != RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            started = time.monotonic()
            status = client._get(f"/jobs/{job}?wait=0.3")
            assert status["state"] == RUNNING
            assert 0.3 <= time.monotonic() - started < 2.0
            for bad in ("soon", "-1", "nan"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"{service.url}/jobs/{job}?wait={bad}", timeout=5
                    )
                assert excinfo.value.code == 400
        finally:
            service.drain()

    def test_drain_wakes_the_dispatcher(self, tmp_path):
        service = remote_service(tmp_path, poll_interval=LONG_WAIT)
        time.sleep(0.2)  # parked on an empty queue
        started = time.monotonic()
        service.drain()
        assert time.monotonic() - started < 2.0

    def test_held_status_read_wakes_when_its_job_starts(self, tmp_path):
        service = remote_service(tmp_path, poll_interval=LONG_WAIT, max_jobs=2)
        try:
            time.sleep(0.2)  # parked on an empty queue
            # Queued behind the dispatcher's back: only the next wake-up
            # (the submission below) makes it run.
            record, _ = service.store.submit(queued_record())
            client = ServiceClient(service.url)
            replies = []
            thread = threading.Thread(
                target=lambda: replies.append(
                    client._get(f"/jobs/{record.job_id}?wait={LONG_WAIT}")
                ),
                daemon=True,
            )
            thread.start()
            time.sleep(0.2)
            started = time.monotonic()
            service.submit({"scenario": "paper-baseline", "seeds": 2})
            thread.join(LONG_WAIT + 5.0)
            assert replies[0]["state"] == RUNNING
            assert time.monotonic() - started < 1.0
        finally:
            service.drain()

    def test_drain_releases_a_held_status_read(self, tmp_path):
        service = SweepService(
            tmp_path / "svc", port=0, remote=True, retry=FAST_RETRY
        )
        # A finished job: no transition is left to wake a read on it.
        record, _ = service.store.submit(queued_record())
        service.store.claim_next()
        service.store.transition(record.job_id, DONE, result_json="{}")
        service.start()
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(
                ServiceClient(service.url)._get(
                    f"/jobs/{record.job_id}?wait={LONG_WAIT}"
                )
            ),
            daemon=True,
        )
        thread.start()
        time.sleep(0.2)
        drained = time.monotonic()
        service.drain()
        thread.join(LONG_WAIT + 5.0)
        assert replies and replies[0]["state"] == DONE
        assert time.monotonic() - drained < 1.5

    def test_client_wait_never_sleeps_past_its_deadline(self, tmp_path):
        service = remote_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            job = client.submit({"scenario": "paper-baseline", "seeds": 2})["job"]
            started = time.monotonic()
            with pytest.raises(ServiceError):
                client.wait(job, timeout=0.5, poll=5.0)
            assert time.monotonic() - started < 1.5
        finally:
            service.drain()


# ----------------------------------------------------------------------
# Workers never spin
# ----------------------------------------------------------------------
class InstantNullTransport:
    """Answers every claim at once with no shard (a service that does
    not hold claims)."""

    def __init__(self):
        self.claims = []

    def post(self, path, payload):
        assert path == "/shards/claim"
        self.claims.append(payload)
        return {"shard": None}


class TestWorkerNeverSpins:
    def test_instant_empty_replies_are_paced_by_the_poll_interval(self):
        worker = ShardWorker("http://unused", worker_id="w", poll_interval=0.1)
        worker.transport = InstantNullTransport()
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        time.sleep(0.5)
        worker.request_stop()
        thread.join(2.0)
        assert not thread.is_alive()
        claims = worker.transport.claims
        assert 1 <= len(claims) <= 7
        assert all(c == {"worker": "w", "wait": 0.1} for c in claims)

    def test_idle_local_fleet_claims_no_faster_than_its_poll(self, tmp_path):
        """Held claims replace the worker's sleep, they do not add to
        its request rate: an idle fleet makes at most one claim per
        worker per poll interval."""
        poll = 0.1
        service = SweepService(
            tmp_path / "svc", port=0, shard_workers=2, poll_interval=poll,
            retry=FAST_RETRY,
        ).start()
        try:
            record, _ = service.submit({"scenario": "paper-baseline", "seeds": 2})
            deadline = time.monotonic() + 30.0
            while service.store.get(record.job_id).state != DONE:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            counted = []
            claim_shard = service.claim_shard

            def counting(payload):
                counted.append(time.monotonic())
                return claim_shard(payload)

            service.claim_shard = counting
            window = 2.0
            time.sleep(window)
            assert len(counted) <= 2 * (window / poll + 1)
        finally:
            service.drain()
