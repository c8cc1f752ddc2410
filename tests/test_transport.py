"""The multi-host worker transport: lease-based shards, network chaos,
partition-tolerant resume.

The contracts under test, in increasing order of violence:

* the lease board grants shards once, dedups seed uploads by
  ``(job, shard, seed)``, revokes stalled leases blame-free, and a
  revoked lease can never double-count a seed;
* the worker transport retries transport-level failures with bounded
  backoff and never retries an HTTP answer; the hardened
  ``ServiceClient`` does the same;
* a job executed by remote workers ends byte-identical to an
  uninterrupted serial run — including under dropped requests,
  duplicated uploads, a partitioned worker, a SIGKILLed worker
  subprocess, and graceful SIGTERM drain;
* ``service gc`` evicts result blobs counter-ordered, keeps records
  for dedup, and the result endpoint answers 410 for evicted reports;
* ``JobStore.recover`` stays correct against live claims, and the
  server-side checkpoint append tolerates a torn trailing line.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    FaultPlan,
    RetryPolicy,
    SeedPool,
    SweepCheckpoint,
    result_to_dict,
)
from repro.experiments.runner import PROTECTIONLESS
from repro.scenarios import ScenarioRunner, get_scenario
from repro.service import (
    DONE,
    QUEUED,
    RUNNING,
    JobStore,
    RemoteShardScheduler,
    ServiceClient,
    ServiceError,
    ShardBoard,
    ShardWorker,
    SweepService,
    WorkerTransport,
    job_key,
    lower_job,
    worker_main,
)

SEEDS = 5
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)


@pytest.fixture(scope="module")
def direct():
    """The uninterrupted serial run every remote path must reproduce."""
    return ScenarioRunner().run("paper-baseline", seeds=SEEDS)


@pytest.fixture(scope="module")
def result_docs(direct):
    """Valid per-seed result documents for board-level tests."""
    return {
        seed: result_to_dict(result)
        for seed, result in enumerate(direct.results)
    }


def start_remote_service(tmp_path, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("shard_timeout", 20.0)
    kwargs.setdefault("shards_per_job", 2)
    kwargs.setdefault("poll_interval", 0.01)
    return SweepService(
        tmp_path / "svc", port=0, remote=True, **kwargs
    ).start()


def start_worker_thread(url, worker_id, **kwargs):
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("retry", FAST_RETRY)
    worker = ShardWorker(url, worker_id=worker_id, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


class StopAfterFirstUpload(ShardWorker):
    """A worker that drains itself the moment its first upload lands —
    the deterministic stand-in for "SIGTERM arrived mid-shard" (a seed
    runs in ~10ms, so wall-clock racing would be flaky)."""

    def _post(self, shard_id, job_id, action, body, plan, telemetry=None):
        arrived = super()._post(shard_id, job_id, action, body, plan, telemetry)
        if action == "seeds":
            self.request_stop()
        return arrived


def run_worker_process(url, worker_id):
    """A spawned process's target: ``repro worker start``'s main loop."""
    worker_main(ShardWorker(url, worker_id=worker_id, poll_interval=0.02))


def wait_for(predicate, timeout=60.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(poll)


def make_board(tmp_path, spec=None, seeds=SEEDS, retry=FAST_RETRY,
               shards=None, done=()):
    """A board with one open job over real (topology, config) lowering."""
    spec = spec if spec is not None else get_scenario("paper-baseline")
    topology, config = lower_job(spec, repeats=seeds)
    checkpoint = SweepCheckpoint(tmp_path / "checkpoints")
    key = checkpoint.key_for(topology, config)
    job_id = job_key(spec, config.repeats, config.base_seed, None, None)
    board = ShardBoard(checkpoint)
    board.open_job(
        job_id, spec.to_json(indent=None), config.repeats, config.base_seed,
        None, None, key, retry,
        shards if shards is not None else [tuple(range(seeds))],
        set(done),
    )
    return board, job_id, checkpoint, key


# ----------------------------------------------------------------------
# FaultPlan network chaos kinds
# ----------------------------------------------------------------------
class TestNetworkFaultPlan:
    def test_env_round_trip_includes_network_kinds(self, tmp_path):
        plan = FaultPlan(
            drop_requests=(2,),
            delay_requests=(3,),
            duplicate_uploads=(1,),
            partition_worker=(4,),
            delay_seconds=0.01,
            partition_seconds=0.5,
            marker_dir=str(tmp_path),
        )
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_drop_and_delay_fire_once_per_ordinal(self, tmp_path):
        plan = FaultPlan(
            drop_requests=(2,), delay_requests=(2,), marker_dir=str(tmp_path)
        )
        assert not plan.transport_drop(1)
        assert plan.transport_drop(2)
        assert not plan.transport_drop(2)  # once only
        assert plan.transport_delay(2)
        assert not plan.transport_delay(2)

    def test_duplicate_upload_is_unconditional(self, tmp_path):
        plan = FaultPlan(duplicate_uploads=(3,))
        assert plan.duplicate_upload(3)
        assert plan.duplicate_upload(3)  # every time
        assert not plan.duplicate_upload(4)

    def test_partition_fires_once_per_seed(self, tmp_path):
        plan = FaultPlan(partition_worker=(1,), marker_dir=str(tmp_path))
        assert plan.partition_before_upload(1)
        assert not plan.partition_before_upload(1)
        assert not plan.partition_before_upload(0)

    def test_once_only_network_kinds_need_marker_dir(self):
        for kind in ("drop_requests", "delay_requests", "partition_worker"):
            with pytest.raises(ValueError):
                FaultPlan(**{kind: (1,)})
        FaultPlan(duplicate_uploads=(1,))  # unconditional: no marker needed


class TestSweepKeyStability:
    def test_every_scenario_keys_identically_after_json_round_trip(
        self, tmp_path
    ):
        """The checkpoint key is derived independently by the scheduler
        and by each worker from the job's spec JSON; any value whose
        repr leaks object identity (a decision function without
        ``__repr__`` once did) silently splits the sweep into two
        stores and the job can never finish."""
        from repro.scenarios import scenario_names

        checkpoint = SweepCheckpoint(tmp_path / "c")
        for name in scenario_names():
            spec = get_scenario(name)
            round_tripped = type(spec).from_json(spec.to_json(indent=None))
            t1, c1 = lower_job(spec, repeats=2)
            t2, c2 = lower_job(round_tripped, repeats=2)
            assert checkpoint.key_for(t1, c1) == checkpoint.key_for(t2, c2), name


# ----------------------------------------------------------------------
# The lease board (no HTTP involved)
# ----------------------------------------------------------------------
class TestShardBoard:
    def test_claim_filters_done_seeds_and_leases_once(self, tmp_path):
        board, job_id, _, _ = make_board(tmp_path, done=(0, 1))
        claim = board.claim("w1")
        assert claim["job"] == job_id
        assert claim["seeds"] == [2, 3, 4]  # durable seeds never re-leased
        assert board.claim("w2") is None  # nothing else to hand out

    def test_upload_is_dedup_by_seed_and_renews_lease(
        self, tmp_path, result_docs
    ):
        board, job_id, checkpoint, key = make_board(tmp_path)
        claim = board.claim("w1")
        shard = claim["shard"]
        first = board.record_seed(job_id, shard, "w1", 0, result_docs[0])
        assert first == {
            "accepted": True, "known": True, "duplicate": False, "stale": False,
        }
        replay = board.record_seed(job_id, shard, "w1", 0, result_docs[0])
        assert replay["duplicate"] and not replay["accepted"]
        # The durable store holds exactly one entry for the seed.
        assert list(checkpoint.load(key)) == [0]

    def test_revoked_lease_never_double_counts_a_seed(
        self, tmp_path, result_docs
    ):
        """The acceptance-criteria invariant, stated directly: a worker
        whose lease was revoked uploads late; the seed is counted once,
        and the re-leased shard only covers what is still missing."""
        board, job_id, checkpoint, key = make_board(tmp_path)
        stale_claim = board.claim("w1")
        shard = stale_claim["shard"]
        board.record_seed(job_id, shard, "w1", 0, result_docs[0])
        # The lease stalls; the supervisor revokes it blame-free.
        future = time.monotonic() + 60.0
        assert board.revoke_stale(0.0, now=future) == 1
        fresh_claim = board.claim("w2", now=future)
        assert fresh_claim["seeds"] == [1, 2, 3, 4]  # seed 0 not re-run
        assert fresh_claim["attempt"] == stale_claim["attempt"]  # blame-free
        # The partitioned-away worker's late traffic arrives now.
        late = board.record_seed(job_id, shard, "w1", 1, result_docs[1])
        assert late["accepted"] and late["stale"]  # durable, but no renewal
        again = board.record_seed(
            job_id, fresh_claim["shard"], "w2", 1, result_docs[1]
        )
        assert again["duplicate"]
        assert sorted(checkpoint.load(key)) == [0, 1]  # once each, ever

    def test_fail_walks_retry_bisect_quarantine_ladder(self, tmp_path):
        retry = RetryPolicy(max_attempts=2, base_delay=0.001, max_delay=0.001)
        board, job_id, _, _ = make_board(tmp_path, retry=retry)
        # Attempt 1 fails -> requeued with backoff, attempt 2.
        claim = board.claim("w1")
        assert claim["attempt"] == 1
        board.fail_shard(job_id, claim["shard"], "w1", "boom")

        def claim_when_ready():  # requeued shards back off briefly
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                granted = board.claim("w1")
                if granted is not None:
                    return granted
                time.sleep(0.002)
            raise AssertionError("no shard became claimable")

        claim = claim_when_ready()
        assert claim["attempt"] == 2
        # Attempt 2 fails -> out of attempts, bisected into halves.
        board.fail_shard(job_id, claim["shard"], "w1", "boom")
        left = claim_when_ready()
        right = claim_when_ready()
        assert left["attempt"] == right["attempt"] == 1
        assert sorted(left["seeds"] + right["seeds"]) == list(range(SEEDS))
        # Keep the right half leased; grind the left down to quarantine.
        poison = set(left["seeds"])
        board.fail_shard(job_id, left["shard"], "w1", "boom")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            claim = board.claim("w1")
            if claim is None:
                if board.progress(job_id)["pending_shards"] == 0:
                    break  # everything poisonous is quarantined
                time.sleep(0.002)  # a requeued shard still backing off
                continue
            assert set(claim["seeds"]) <= poison  # right half untouched
            board.fail_shard(job_id, claim["shard"], "w1", "boom")
        failures = board.take_failures(job_id)
        assert sorted(f.seed for f in failures) == sorted(poison)
        assert all(f.kind == "error" and f.error == "boom" for f in failures)

    def test_release_requeues_blame_free(self, tmp_path, result_docs):
        board, job_id, _, _ = make_board(tmp_path)
        claim = board.claim("w1")
        board.record_seed(job_id, claim["shard"], "w1", 0, result_docs[0])
        reply = board.release_shard(job_id, claim["shard"], "w1")
        assert reply == {"known": True, "stale": False}
        again = board.claim("w2")
        assert again["seeds"] == [1, 2, 3, 4]
        assert again["attempt"] == claim["attempt"]  # no blame

    def test_closed_job_reports_unknown(self, tmp_path, result_docs):
        board, job_id, _, _ = make_board(tmp_path)
        claim = board.claim("w1")
        board.close_job(job_id)
        reply = board.record_seed(
            job_id, claim["shard"], "w1", 0, result_docs[0]
        )
        assert reply == {"accepted": False, "known": False}
        assert board.claim("w1") is None

    def test_job_finishes_when_all_seeds_durable(self, tmp_path, result_docs):
        board, job_id, _, _ = make_board(tmp_path)
        claim = board.claim("w1")
        assert not board.job_finished(job_id)
        for seed in claim["seeds"]:
            board.record_seed(job_id, claim["shard"], "w1", seed, result_docs[seed])
        assert board.job_finished(job_id)

    def test_one_upload_shape_and_no_closing_action(self, tmp_path, result_docs):
        """Every seed goes up as one ``{"job", "worker", "seed",
        "result"}`` body; anything else is a 400, never a crash, and a
        lease needs no closing request."""
        from repro.service.transport import shard_post

        board, job_id, _, _ = make_board(tmp_path, seeds=1)
        shard = board.claim("w1")["shard"]
        base = {"job": job_id, "worker": "w1"}
        for body in (
            {**base, "seed": "0", "result": result_docs[0]},
            {**base, "seed": True, "result": result_docs[0]},
            {**base, "seed": 0},
            {**base, "seed": 0, "result": {"captured": "garbage"}},
            {**base, "seeds": [{"seed": 0, "result": result_docs[0]}]},
        ):
            status, reply = shard_post(board, shard, "seeds", body)
            assert status == 400 and reply["error"]
        assert not board.job_finished(job_id)
        upload = {**base, "seed": 0, "result": result_docs[0]}
        assert shard_post(board, shard, "seeds", upload)[1]["accepted"]
        assert board.job_finished(job_id)
        assert board.progress(job_id)["shards"] == []  # the lease ended
        assert shard_post(board, shard, "done", base)[0] == 404

    def test_malformed_result_is_rejected_without_poisoning(self, tmp_path):
        board, job_id, _, checkpoint_key = make_board(tmp_path)
        claim = board.claim("w1")
        with pytest.raises((KeyError, TypeError, ValueError)):
            board.record_seed(
                job_id, claim["shard"], "w1", 0, {"captured": "garbage"}
            )
        assert not board.job_finished(job_id)


# ----------------------------------------------------------------------
# The worker transport (retry/backoff, chaos injection)
# ----------------------------------------------------------------------
class TestWorkerTransport:
    def test_connection_failures_retry_with_backoff_then_raise(self):
        sleeps = []
        transport = WorkerTransport(
            "http://127.0.0.1:9",  # discard port: nothing listens
            timeout=0.2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002),
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceError) as excinfo:
            transport.post("/shards/claim", {"worker": "w"})
        assert excinfo.value.status == 0
        assert len(sleeps) == 2  # attempts 1 and 2 backed off; 3rd raised

    def test_http_answers_are_never_retried(self, tmp_path):
        service = SweepService(tmp_path / "svc", port=0).start()
        try:
            sleeps = []
            transport = WorkerTransport(
                service.url, timeout=5.0, retry=FAST_RETRY, sleep=sleeps.append
            )
            with pytest.raises(ServiceError) as excinfo:
                transport.post("/shards/claim", {"worker": ""})
            assert excinfo.value.status == 400  # a claim needs a worker id
            assert sleeps == []  # an answer is not an outage
        finally:
            service.drain()

    def test_partition_fails_client_side(self, tmp_path):
        plan = FaultPlan(
            partition_worker=(3,),
            partition_seconds=30.0,
            marker_dir=str(tmp_path / "m"),
        )
        transport = WorkerTransport(
            "http://127.0.0.1:9", retry=FAST_RETRY, sleep=lambda _: None
        )
        upload = {"job": "j", "worker": "w", "seed": 3, "result": {}}
        started = time.monotonic()
        with plan.activated():
            # The partition fires as seed 3's upload leaves, and holds
            # for the requests after it.
            with pytest.raises(ServiceError) as excinfo:
                transport.post("/shards/s/seeds", upload)
            with pytest.raises(ServiceError):
                transport.post("/shards/claim", {"worker": "w"})
        assert excinfo.value.status == 0
        assert "partitioned" in str(excinfo.value)
        # Partitioned requests never touch a socket (no connect timeout).
        assert time.monotonic() - started < 1.0

    def test_injected_drop_consumes_retry_budget_once(self, tmp_path):
        plan = FaultPlan(drop_requests=(1,), marker_dir=str(tmp_path / "m"))
        service = start_remote_service(tmp_path)
        try:
            with plan.activated():
                sleeps = []
                transport = WorkerTransport(
                    service.url, timeout=5.0, retry=FAST_RETRY,
                    sleep=sleeps.append,
                )
                reply = transport.post("/shards/claim", {"worker": "w"})
            assert reply == {"shard": None}  # retried through the drop
            assert len(sleeps) == 1
        finally:
            service.drain()


# ----------------------------------------------------------------------
# The hardened ServiceClient
# ----------------------------------------------------------------------
class TestServiceClientHardening:
    def test_connection_errors_retry_then_surface(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.2)
        sleeps = []
        client._sleep = sleeps.append
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        # The default RetryPolicy's budget and backoff, keyed by the
        # request ordinal: three attempts, two sleeps.
        policy = RetryPolicy()
        assert sleeps == [policy.delay(1, key=1), policy.delay(2, key=2)]

    def test_http_errors_surface_without_retry(self, tmp_path):
        service = SweepService(tmp_path / "svc", port=0).start()
        try:
            client = ServiceClient(service.url)
            sleeps = []
            client._sleep = sleeps.append
            with pytest.raises(ServiceError) as excinfo:
                client.status("0" * 64)
            assert excinfo.value.status == 404
            assert sleeps == []  # an answer is not an outage
        finally:
            service.drain()

    def test_unreachable_service_fails_fast(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.2)
        started = time.monotonic()
        with pytest.raises(ServiceError):
            client.health()
        assert time.monotonic() - started < 2.0


# ----------------------------------------------------------------------
# What a shard costs on the wire
# ----------------------------------------------------------------------
class TestShardWireCost:
    """A shard costs one granted claim plus one upload per seed, and no
    other request: the upload that lands its last seed ends the lease."""

    @staticmethod
    def counted(claim_shard, shard_post, granted, posted):
        def claim(*args, **kwargs):
            status, reply = claim_shard(*args, **kwargs)
            if reply.get("shard") is not None:
                granted.append(reply["shard"])
            return status, reply

        def post(*args):
            shard_id, action, payload = args[-3:]
            posted.append((shard_id, action, payload.get("seed")))
            return shard_post(*args)

        return claim, post

    def test_over_http(self, tmp_path, monkeypatch):
        granted, posted = [], []
        claim, post = self.counted(
            SweepService.claim_shard, SweepService.shard_post, granted, posted
        )
        monkeypatch.setattr(SweepService, "claim_shard", claim)
        monkeypatch.setattr(SweepService, "shard_post", post)
        service = SweepService(
            tmp_path / "svc", port=0, shard_workers=2, retry=FAST_RETRY
        ).start()
        try:
            client = ServiceClient(service.url)
            job = client.submit({"scenario": "paper-baseline", "seeds": 4})["job"]
            assert client.wait(job, timeout=120.0)["state"] == "done"
        finally:
            service.drain()
        assert [action for _, action, _ in posted] == ["seeds"] * 4
        assert sorted(seed for _, _, seed in posted) == [0, 1, 2, 3]
        assert sorted({shard for shard, _, _ in posted}) == sorted(granted)

    def test_over_a_pools_pipe(self, grid5, monkeypatch, pooled_sweeps):
        from repro.service import transport

        granted, posted = [], []
        claim, post = self.counted(
            transport.claim_shard, transport.shard_post, granted, posted
        )
        # What the pool's ``_PipeServer._answer`` dispatches each
        # request to.
        monkeypatch.setattr(transport, "claim_shard", claim)
        monkeypatch.setattr(transport, "shard_post", post)
        config = ExperimentConfig(algorithm=PROTECTIONLESS, repeats=4, base_seed=0)
        pool = SeedPool(workers=2, chunks_per_worker=1, retry_policy=FAST_RETRY)
        outcome = ExperimentRunner(grid5, pool=pool).run(config)
        assert pooled_sweeps == [2]
        assert outcome.results == ExperimentRunner(grid5).run(config).results
        assert [action for _, action, _ in posted] == ["seeds"] * 4
        assert sorted(seed for _, _, seed in posted) == [0, 1, 2, 3]
        assert len(granted) == 2
        assert sorted({shard for shard, _, _ in posted}) == sorted(granted)


# ----------------------------------------------------------------------
# Remote end-to-end: byte identity under chaos
# ----------------------------------------------------------------------
class TestRemoteByteIdentity:
    def submit_and_finish(self, service, n_workers=1, timeout=120.0, **worker_kwargs):
        client = ServiceClient(service.url)
        reply = client.submit({"scenario": "paper-baseline", "seeds": SEEDS})
        workers = [
            start_worker_thread(service.url, f"w{i}", **worker_kwargs)
            for i in range(n_workers)
        ]
        try:
            final = client.wait(reply["job"], timeout=timeout)
            return reply["job"], final, client.result_text(reply["job"])
        finally:
            for worker, thread in workers:
                worker.request_stop()
                thread.join(timeout=10.0)

    def test_clean_remote_run_is_byte_identical(self, tmp_path, direct):
        service = start_remote_service(tmp_path)
        try:
            _, final, text = self.submit_and_finish(service)
            assert final["state"] == "done"
            assert text == direct.to_json() + "\n"
        finally:
            service.drain()

    def test_duplicated_uploads_are_byte_identical(self, tmp_path, direct):
        """Every seed's upload is sent twice; the server's
        (job, shard, seed) dedup makes each replay harmless."""
        plan = FaultPlan(duplicate_uploads=tuple(range(SEEDS)))
        service = start_remote_service(tmp_path)
        try:
            with plan.activated():
                job_id, final, text = self.submit_and_finish(service)
            assert final["state"] == "done"
            assert text == direct.to_json() + "\n"
            # The chaos really fired: the server saw and absorbed dups.
            counters = ServiceClient(service.url).status(job_id)[
                "metrics"
            ]["counters"]
            assert counters.get("service.uploads.duplicate", 0) >= SEEDS
        finally:
            service.drain()

    def test_dropped_and_delayed_requests_are_byte_identical(
        self, tmp_path, direct
    ):
        """Requests 2 and 4 of the worker's transport are dropped, 3 is
        delayed; bounded retry absorbs all of it."""
        plan = FaultPlan(
            drop_requests=(2, 4),
            delay_requests=(3,),
            delay_seconds=0.05,
            marker_dir=str(tmp_path / "markers"),
        )
        service = start_remote_service(tmp_path)
        try:
            with plan.activated():
                _, final, text = self.submit_and_finish(service)
            assert final["state"] == "done"
            assert text == direct.to_json() + "\n"
        finally:
            service.drain()
        assert (tmp_path / "markers" / "drop-2").exists()
        assert (tmp_path / "markers" / "delay-3").exists()

    def test_partitioned_worker_mid_shard_is_byte_identical(
        self, tmp_path, direct
    ):
        """Worker w0 is cut off right before uploading seed 1: its lease
        stalls, is revoked blame-free, and w1 finishes the remainder;
        when the partition heals, w0's late traffic dedups away."""
        plan = FaultPlan(
            partition_worker=(1,),
            partition_seconds=1.5,
            marker_dir=str(tmp_path / "markers"),
        )
        service = start_remote_service(
            tmp_path, shard_timeout=0.3, shards_per_job=1
        )
        try:
            with plan.activated():
                client = ServiceClient(service.url)
                reply = client.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                w0, t0 = start_worker_thread(
                    service.url, "w0", poll_interval=0.02, retry=FAST_RETRY
                )
                # Only w0 runs until the partition has certainly fired.
                wait_for(lambda: (tmp_path / "markers" / "partition-1").exists())
                w1, t1 = start_worker_thread(
                    service.url, "w1", poll_interval=0.02, retry=FAST_RETRY
                )
                final = client.wait(reply["job"], timeout=120.0)
                text = client.result_text(reply["job"])
                for worker, thread in ((w0, t0), (w1, t1)):
                    worker.request_stop()
                    thread.join(timeout=10.0)
            assert final["state"] == "done"
            assert text == direct.to_json() + "\n"
        finally:
            service.drain()

    def test_sigterm_drain_hands_the_lease_back(self, tmp_path, direct):
        """A worker stopped mid-shard (the SIGTERM handler calls
        ``request_stop``) uploads what it finished, releases the lease,
        and a second worker completes the job."""
        service = start_remote_service(tmp_path, shards_per_job=1)
        try:
            client = ServiceClient(service.url)
            reply = client.submit({"scenario": "paper-baseline", "seeds": SEEDS})
            w0 = StopAfterFirstUpload(
                service.url, worker_id="w0", poll_interval=0.02,
                retry=FAST_RETRY,
            )
            t0 = threading.Thread(target=w0.run, daemon=True)
            t0.start()
            t0.join(timeout=30.0)
            assert not t0.is_alive()
            # One seed landed, the rest was released: the job is not
            # done, and nothing is charged against the shard.
            assert client.status(reply["job"])["state"] == "running"
            w1, t1 = start_worker_thread(service.url, "w1")
            final = client.wait(reply["job"], timeout=120.0)
            text = client.result_text(reply["job"])
            w1.request_stop()
            t1.join(timeout=10.0)
            assert final["state"] == "done"
            assert text == direct.to_json() + "\n"
        finally:
            service.drain()

    def test_sigkilled_worker_subprocess_is_byte_identical(
        self, tmp_path, direct
    ):
        """The literal drill: a real worker process is SIGKILLed while
        wedged mid-shard; the lease times out, a fresh worker finishes,
        and the report cannot tell the story apart from a clean run."""
        plan = FaultPlan(
            hang_seeds=(2,),
            hang_seconds=120.0,
            marker_dir=str(tmp_path / "markers"),
        )
        service = start_remote_service(
            tmp_path, shard_timeout=0.5, shards_per_job=1
        )
        try:
            with plan.activated():
                client = ServiceClient(service.url)
                reply = client.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                context = multiprocessing.get_context("spawn")
                victim = context.Process(
                    target=run_worker_process,
                    args=(service.url, "victim"),
                    daemon=True,
                )
                victim.start()
                # The marker appears the instant the worker starts its
                # injected hang inside the shard — provably mid-shard.
                wait_for(
                    lambda: (tmp_path / "markers" / "hang-2").exists(),
                    timeout=90.0,
                )
                victim.kill()  # SIGKILL: no drain, no release, nothing
                victim.join(timeout=10.0)
                # The in-process finisher skips the hang (marker exists).
                w1, t1 = start_worker_thread(service.url, "rescuer")
                final = client.wait(reply["job"], timeout=120.0)
                text = client.result_text(reply["job"])
                w1.request_stop()
                t1.join(timeout=10.0)
            assert final["state"] == "done"
            assert text == direct.to_json() + "\n"
        finally:
            service.drain()

    def test_remote_resume_after_service_restart(self, tmp_path, direct):
        """Seeds uploaded before a service restart are never re-run:
        the checkpoint survives, recovery re-queues the job, and the
        new instance's merge serves the same bytes."""
        service = start_remote_service(tmp_path, shards_per_job=1)
        client = ServiceClient(service.url)
        reply = client.submit({"scenario": "paper-baseline", "seeds": SEEDS})
        w0 = StopAfterFirstUpload(
            service.url, worker_id="w0", poll_interval=0.02, retry=FAST_RETRY
        )
        t0 = threading.Thread(target=w0.run, daemon=True)
        t0.start()
        t0.join(timeout=30.0)
        service.drain()
        assert service.store.get(reply["job"]).state == QUEUED  # re-queued
        restarted = start_remote_service(tmp_path)
        try:
            client = ServiceClient(restarted.url)
            w1, t1 = start_worker_thread(restarted.url, "w1")
            final = client.wait(reply["job"], timeout=120.0)
            text = client.result_text(reply["job"])
            w1.request_stop()
            t1.join(timeout=10.0)
            assert final["state"] == "done"
            assert text == direct.to_json() + "\n"
        finally:
            restarted.drain()


# ----------------------------------------------------------------------
# Concurrent job dispatch (--max-jobs)
# ----------------------------------------------------------------------
class TestMaxJobs:
    def test_two_jobs_run_concurrently_and_both_finish_clean(self, tmp_path):
        service = SweepService(
            tmp_path / "svc", port=0, remote=True, max_jobs=2,
            retry=FAST_RETRY, shard_timeout=20.0, shards_per_job=2,
            poll_interval=0.01,
        ).start()
        try:
            client = ServiceClient(service.url)
            first = client.submit({"scenario": "paper-baseline", "seeds": 3})
            second = client.submit(
                {"scenario": "paper-baseline", "seeds": 3, "base_seed": 100}
            )
            # Both leave the queue before either finishes: concurrent.
            wait_for(
                lambda: [
                    r.state for r in service.store.list_jobs()
                ].count(RUNNING) == 2,
                timeout=30.0,
            )
            worker, thread = start_worker_thread(service.url, "w0")
            for reply, base in ((first, 0), (second, 100)):
                final = client.wait(reply["job"], timeout=120.0)
                assert final["state"] == "done"
                expected = ScenarioRunner().run(
                    "paper-baseline", seeds=3, base_seed=base
                )
                assert client.result_text(reply["job"]) == expected.to_json() + "\n"
            worker.request_stop()
            thread.join(timeout=10.0)
        finally:
            service.drain()

    def test_max_jobs_must_be_positive(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SweepService(tmp_path / "svc", max_jobs=0)


# ----------------------------------------------------------------------
# Job-store retention (service gc)
# ----------------------------------------------------------------------
class TestServiceGc:
    #: Distinct scenarios so each job owns a distinct checkpoint file
    #: (the sweep key canonicalises repeats/base_seed away).
    SCENARIOS = ("paper-baseline", "two-sources", "cautious-attacker")

    def finish_jobs(self, tmp_path, count):
        """Run `count` tiny jobs to completion through a local service."""
        service = SweepService(
            tmp_path / "svc", port=0, shard_workers=2, retry=FAST_RETRY
        ).start()
        try:
            client = ServiceClient(service.url)
            ids = []
            for i in range(count):
                reply = client.submit(
                    {"scenario": self.SCENARIOS[i], "seeds": 2}
                )
                ids.append(reply["job"])
            for job_id in ids:
                assert client.wait(job_id, timeout=120.0)["state"] == "done"
        finally:
            service.drain()
        return ids

    def test_gc_keeps_newest_and_preserves_records(self, tmp_path):
        ids = self.finish_jobs(tmp_path, 3)
        store = JobStore(tmp_path / "svc" / "jobs.jsonl")
        evicted = store.gc(keep=1)
        assert [r.job_id for r in evicted] == ids[:2][::-1]  # oldest evicted
        for record in evicted:
            assert record.result_json is not None  # pre-eviction snapshot
        survivors = {r.job_id: r for r in store.list_jobs()}
        assert survivors[ids[2]].result_json is not None
        for job_id in ids[:2]:
            record = survivors[job_id]
            assert record.state == DONE  # the record survives for dedup
            assert record.result_json is None
            assert record.describe()["evicted"] is True
        assert store.gc(keep=1) == []  # idempotent
        with pytest.raises(ValueError):
            store.gc(keep=-1)

    def test_evicted_result_is_410_and_resubmission_dedups(self, tmp_path):
        """The documented trade-off, end to end: after gc the record
        still dedups a resubmission, and the result endpoint says 410
        (gone), never 404 (unknown) or a recompute."""
        ids = self.finish_jobs(tmp_path, 2)
        JobStore(tmp_path / "svc" / "jobs.jsonl").gc(keep=1)
        service = SweepService(
            tmp_path / "svc", port=0, shard_workers=2, retry=FAST_RETRY
        ).start()
        try:
            client = ServiceClient(service.url)
            reply = client.submit(
                {"scenario": "paper-baseline", "seeds": 2, "base_seed": 0}
            )
            assert reply["created"] is False  # dedup across the gc
            assert reply["job"] == ids[0]
            with pytest.raises(ServiceError) as excinfo:
                client.result(ids[0])
            assert excinfo.value.status == 410
            assert client.status(ids[0])["evicted"] is True
        finally:
            service.drain()

    def test_gc_cli_prunes_checkpoints_too(self, tmp_path, capsys):
        ids = self.finish_jobs(tmp_path, 2)
        data_dir = tmp_path / "svc"
        checkpoints = list((data_dir / "checkpoints").glob("sweep-*.jsonl"))
        assert len(checkpoints) == 2
        assert main(
            ["service", "gc", "--data-dir", str(data_dir), "--keep", "1"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [ids[0]]  # the evicted id, printed for scripting
        remaining = list((data_dir / "checkpoints").glob("sweep-*.jsonl"))
        assert len(remaining) == 1  # the evicted job's seeds are gone

    def test_gc_process_against_a_live_service(self, tmp_path):
        """``repro service gc`` in its own process evicts from a data
        dir a live service is serving: the service's next status read
        folds the eviction (410, ``evicted``), and a resubmission still
        dedups."""
        service = SweepService(
            tmp_path / "svc", port=0, shard_workers=2, retry=FAST_RETRY
        ).start()
        try:
            client = ServiceClient(service.url)
            job = client.submit({"scenario": "paper-baseline", "seeds": 2})["job"]
            assert client.wait(job, timeout=120.0)["state"] == "done"
            assert "evicted" not in client.status(job)
            env = dict(os.environ)
            env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
            gc = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "service", "gc",
                    "--data-dir", str(tmp_path / "svc"), "--keep", "0",
                ],
                env=env, capture_output=True, text=True, timeout=120.0,
            )
            assert gc.returncode == 0, gc.stderr
            assert gc.stdout.split() == [job]
            assert client.status(job)["evicted"] is True
            with pytest.raises(ServiceError) as excinfo:
                client.result(job)
            assert excinfo.value.status == 410
            again = client.submit({"scenario": "paper-baseline", "seeds": 2})
            assert again["created"] is False and again["job"] == job
        finally:
            service.drain()

    def test_gc_cli_without_store_is_an_error(self, tmp_path, capsys):
        assert main(
            ["service", "gc", "--data-dir", str(tmp_path / "empty"), "--keep", "1"]
        ) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# JobStore.recover edge cases
# ----------------------------------------------------------------------
class TestRecoverEdgeCases:
    def make_jobs(self, tmp_path, count):
        store = JobStore(tmp_path / "jobs.jsonl")
        spec = get_scenario("paper-baseline")
        for i in range(count):
            from repro.service import JobRecord

            record = JobRecord(
                job_id=job_key(spec, 2, 1000 + i, None, None),
                spec_json=spec.to_json(indent=None),
                repeats=2,
                base_seed=1000 + i,
                kernel=None,
                setup_kernel=None,
                state=QUEUED,
            )
            store.submit(record)
        return store

    def test_recovery_racing_live_claims_loses_nothing(self, tmp_path):
        """`recover()` firing while claim threads are live must neither
        lose a job nor hand one out twice per requeue round: claims are
        atomic edges, recovery is one atomic UPDATE."""
        store = self.make_jobs(tmp_path, 8)
        claimed, errors = [], []
        lock = threading.Lock()

        def claimer():
            try:
                local = JobStore(tmp_path / "jobs.jsonl")
                while True:
                    job = local.claim_next()
                    if job is None:
                        break
                    with lock:
                        claimed.append(job.job_id)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def recoverer():
            try:
                local = JobStore(tmp_path / "jobs.jsonl")
                for _ in range(3):
                    local.recover()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=claimer) for _ in range(4)]
        threads.append(threading.Thread(target=recoverer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        # Every job ends accounted for: running (claimed and kept) or
        # queued (recovered after its claim); no job vanished.
        states = {r.job_id: r.state for r in store.list_jobs()}
        assert len(states) == 8
        assert set(states.values()) <= {QUEUED, RUNNING}
        assert set(claimed) == set(states)  # all 8 were claimed at least once
        # A final recover + drain claims each job exactly once.
        store.recover()
        final = set()
        while True:
            job = store.claim_next()
            if job is None:
                break
            assert job.job_id not in final  # atomic: never handed out twice
            final.add(job.job_id)
        assert final == set(states)

    def test_threads_sharing_one_store_hand_out_each_job_once(self, tmp_path):
        """The service shares one store between its handler, dispatcher
        and job threads: with readers folding the log while claimers on
        it and on a second store append to it, and threads switching as
        often as the interpreter allows, every job is claimed once."""
        store = self.make_jobs(tmp_path, 32)
        other = JobStore(tmp_path / "jobs.jsonl")
        claimed, errors = [], []
        done = threading.Event()

        def claimer(store):
            try:
                while True:
                    job = store.claim_next()
                    if job is None:
                        return
                    claimed.append(job.job_id)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def reader():
            try:
                while not done.is_set():
                    store.list_jobs()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reader) for _ in range(2)]
            claimers = [
                threading.Thread(target=claimer, args=(s,))
                for s in (store, store, other, other)
            ]
            for thread in readers + claimers:
                thread.start()
            for thread in claimers:
                thread.join(timeout=60.0)
            done.set()
            for thread in readers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + claimers)
        assert errors == []
        assert sorted(claimed) == sorted(r.job_id for r in store.list_jobs())
        assert {r.state for r in JobStore(tmp_path / "jobs.jsonl").list_jobs()} == {
            RUNNING
        }

    def test_a_fork_mid_call_leaves_the_child_no_lock(self, tmp_path):
        """A worker forked while another thread is inside a store call
        must not inherit the call's descriptor: a copy would hold the
        log's shared lock for the child's whole life, and the parent's
        next write would wait for the child to exit."""
        inside, release = threading.Event(), threading.Event()

        class HeldStore(JobStore):
            def _record(self, job):  # runs under the log's shared lock
                inside.set()
                release.wait(30.0)
                return super()._record(job)

        store = self.make_jobs(tmp_path, 1)
        reader = threading.Thread(
            target=HeldStore(tmp_path / "jobs.jsonl").list_jobs
        )
        reader.start()
        assert inside.wait(30.0)
        threading.Timer(0.3, release.set).start()
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(30.0,)
        )
        child.start()  # waits for the reader's call to finish
        try:
            claim = threading.Thread(target=store.claim_next)
            claim.start()
            claim.join(timeout=10.0)
            assert not claim.is_alive()
        finally:
            child.kill()
            child.join()
            reader.join(timeout=30.0)
        assert store.get(store.list_jobs()[0].job_id).state == RUNNING

    def test_claims_from_separate_processes_never_collide(self, tmp_path):
        """Three processes, each with its own store over one job log,
        drain the queue: the log's lock makes every claim atomic across
        processes, so each job is handed out exactly once."""
        store = self.make_jobs(tmp_path, 12)

        def claimer(index):
            local = JobStore(tmp_path / "jobs.jsonl")
            ids = []
            while True:
                job = local.claim_next()
                if job is None:
                    break
                ids.append(job.job_id)
            (tmp_path / f"claims-{index}").write_text("\n".join(ids))

        context = multiprocessing.get_context("fork")
        processes = [context.Process(target=claimer, args=(i,)) for i in range(3)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60.0)
            assert process.exitcode == 0
        claimed = [
            job_id
            for i in range(3)
            for job_id in (tmp_path / f"claims-{i}").read_text().split()
        ]
        assert sorted(claimed) == sorted(r.job_id for r in store.list_jobs())
        assert {r.state for r in store.list_jobs()} == {RUNNING}

    def test_server_side_append_tolerates_torn_trailing_line(
        self, tmp_path, result_docs
    ):
        """A torn trailing line (the previous process died mid-write)
        must neither break the server-side append nor leak into the
        merge: load skips it, the appended seed lands cleanly."""
        board, job_id, checkpoint, key = make_board(tmp_path, done=())
        claim = board.claim("w1")
        board.record_seed(job_id, claim["shard"], "w1", 0, result_docs[0])
        # Tear the file the way a crash mid-append would.
        path = checkpoint.path_for(key)
        with path.open("a") as handle:
            handle.write('{"seed": 1, "result": {"cap')
        board.record_seed(job_id, claim["shard"], "w1", 2, result_docs[2])
        on_disk = checkpoint.load(key)
        assert sorted(on_disk) == [0, 2]  # torn line skipped, append clean
        # And a fresh board over the same store sees exactly that.
        board2, job2, _, _ = make_board(
            tmp_path, done=set(on_disk)
        )
        fresh = board2.claim("w2")
        assert fresh["seeds"] == [1, 3, 4]

    def test_dedup_after_gc_survives_recovery(self, tmp_path):
        """A gc'd terminal job resubmitted after a recover() round still
        dedups to the original record (content addressing is durable
        against both eviction and recovery)."""
        store = self.make_jobs(tmp_path, 1)
        record = store.list_jobs()[0]
        store.claim_next()
        store.transition(record.job_id, DONE, result_json="{}")
        assert store.gc(keep=0) != []
        assert store.recover() == 0  # terminal rows are not recovery's business
        again, created = store.submit(record)
        assert not created
        assert again.job_id == record.job_id
        assert again.state == DONE and again.result_json is None


# ----------------------------------------------------------------------
# The scheduler's merge and recovery pass
# ----------------------------------------------------------------------
class TestRemoteShardScheduler:
    def test_fully_checkpointed_job_merges_without_workers(
        self, tmp_path, direct
    ):
        """Every seed already durable: the merge happens without a
        single claim — resume costs only what is missing."""
        spec = get_scenario("paper-baseline")
        topology, config = lower_job(spec, repeats=SEEDS)
        checkpoint = SweepCheckpoint(tmp_path / "checkpoints")
        key = checkpoint.key_for(topology, config)
        runner = ExperimentRunner(topology)
        for seed in range(SEEDS):
            checkpoint.append(key, seed, runner.run_once(config, seed))
        board = ShardBoard(checkpoint)
        scheduler = RemoteShardScheduler(board, retry=FAST_RETRY)
        outcome = scheduler.run_job(spec, repeats=SEEDS)
        assert outcome.to_json() == direct.to_json()

    def test_corrupt_append_is_recovered_in_remote_mode(self, tmp_path):
        """A seed's checkpoint line is mangled on append: the board saw
        it land, the loader drops it, and the recovery pass reopens it
        instead of failing the job."""
        seeds = 6
        direct = ScenarioRunner().run("paper-baseline", seeds=seeds)
        plan = FaultPlan(
            corrupt_checkpoint_seeds=(2,),
            marker_dir=str(tmp_path / "markers"),
        )
        service = start_remote_service(tmp_path)
        try:
            with plan.activated():
                client = ServiceClient(service.url)
                reply = client.submit(
                    {"scenario": "paper-baseline", "seeds": seeds}
                )
                worker, thread = start_worker_thread(service.url, "w0")
                try:
                    final = client.wait(reply["job"], timeout=120.0)
                finally:
                    worker.request_stop()
                    thread.join(timeout=10.0)
            assert (tmp_path / "markers" / "corrupt-2").exists()
            assert final["state"] == "done", final.get("error")
            assert client.result_text(reply["job"]) == direct.to_json() + "\n"
        finally:
            service.drain()
