"""The resilient experiment service: durable jobs, shard supervision,
crash-safe resume.

The contracts under test, in increasing order of violence:

* job identity is content-addressed — the same submission dedups, any
  knob change produces a different job;
* the durable store's state machine admits only legal edges, claims
  are atomic, and recovery re-queues whatever a dead process held;
* a shard-scheduled job's merged report is *byte-identical* to an
  uninterrupted serial run — including after a worker is killed
  mid-job (crash drill) and after the whole service "dies" and a
  fresh instance resumes from the same data dir (halt drill);
* the local worker fleet follows the blame rules — a dead worker is
  charged one ``crash`` attempt, a wedged one is killed and charged
  ``timeout``, both are respawned — and dies with its service;
* malformed submissions are a 400 over HTTP, never a crash, and the
  result endpoint serves the report's exact bytes.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.errors import ConfigurationError, StorageError, SweepExecutionError
from repro.experiments import (
    FAULT_PLAN_ENV,
    FaultPlan,
    RetryPolicy,
    ServiceHalt,
    SweepCheckpoint,
)
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario
from repro.service import (
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobStore,
    ServiceClient,
    ServiceError,
    ShardBoard,
    ShardScheduler,
    SweepService,
    check_transition,
    job_key,
    lower_job,
)
from repro.telemetry import default_registry

SEEDS = 5
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)


@pytest.fixture(scope="module")
def direct():
    """The uninterrupted serial run every service path must reproduce."""
    return ScenarioRunner().run("paper-baseline", seeds=SEEDS)


def make_record(spec=None, repeats=SEEDS, base_seed=0, **knobs):
    spec = spec if spec is not None else get_scenario("paper-baseline")
    return JobRecord(
        job_id=job_key(spec, repeats, base_seed, **knobs),
        spec_json=spec.to_json(indent=None),
        repeats=repeats,
        base_seed=base_seed,
        kernel=knobs.get("kernel"),
        setup_kernel=knobs.get("setup_kernel"),
        state=QUEUED,
    )


def start_service(tmp_path, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return SweepService(
        tmp_path / "svc", port=0, shard_workers=2, **kwargs
    ).start()


def wait_for(predicate, timeout=60.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(poll)


# ----------------------------------------------------------------------
# Content-addressed job identity
# ----------------------------------------------------------------------
class TestJobKey:
    def test_stable_across_equal_submissions(self):
        spec = get_scenario("paper-baseline")
        again = ScenarioSpec.from_json(spec.to_json())
        assert job_key(spec, 5, 0) == job_key(again, 5, 0)

    def test_every_knob_is_part_of_the_identity(self):
        spec = get_scenario("paper-baseline")
        base = job_key(spec, 5, 0)
        assert job_key(spec, 6, 0) != base
        assert job_key(spec, 5, 1) != base
        assert job_key(spec, 5, 0, kernel="legacy") != base
        assert job_key(spec, 5, 0, setup_kernel="legacy") != base
        assert job_key(get_scenario("two-sources"), 5, 0) != base


class TestSpecJsonRoundTrip:
    @pytest.mark.parametrize("name", ["paper-baseline", "two-sources", "mobile-source"])
    def test_json_round_trip_is_lossless(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json(json.dumps(["not", "an", "object"]))


# ----------------------------------------------------------------------
# The durable job store
# ----------------------------------------------------------------------
class TestJobStore:
    def test_submit_then_dedup(self, tmp_path):
        store = JobStore(tmp_path / "jobs.jsonl")
        record, created = store.submit(make_record())
        assert created and record.state == QUEUED
        again, created = store.submit(make_record())
        assert not created
        assert again.job_id == record.job_id
        assert again.submit_order == record.submit_order
        assert len(store.list_jobs()) == 1

    def test_claim_is_fifo_and_exhaustible(self, tmp_path):
        store = JobStore(tmp_path / "jobs.jsonl")
        first, _ = store.submit(make_record(repeats=2))
        second, _ = store.submit(make_record(repeats=3))
        assert store.claim_next().job_id == first.job_id
        assert store.claim_next().job_id == second.job_id
        assert store.claim_next() is None
        assert all(r.state == RUNNING for r in store.list_jobs())

    def test_transition_validates_edges(self, tmp_path):
        store = JobStore(tmp_path / "jobs.jsonl")
        record, _ = store.submit(make_record())
        with pytest.raises(ConfigurationError):  # queued -> done skips running
            store.transition(record.job_id, DONE)
        store.claim_next()
        done = store.transition(record.job_id, DONE, result_json="{}")
        assert done.state == DONE and done.result_json == "{}"
        with pytest.raises(ConfigurationError):  # terminal states are immutable
            store.transition(record.job_id, QUEUED)
        with pytest.raises(KeyError):
            store.transition("no-such-job", DONE)

    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path / "jobs.jsonl")
        record, _ = store.submit(make_record())
        store.claim_next()
        # A second store over the same file is "the restarted process".
        restarted = JobStore(tmp_path / "jobs.jsonl")
        assert restarted.recover() == 1
        assert restarted.get(record.job_id).state == QUEUED
        assert restarted.recover() == 0

    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="needs Linux /proc"
    )
    def test_connections_are_closed_after_each_call(self, tmp_path):
        # Every call opens the log and closes it before returning: a
        # leaked descriptor would pin the log's flock, and a forked
        # child would inherit it.
        store = JobStore(tmp_path / "jobs.jsonl")
        record, _ = store.submit(make_record())

        def open_descriptors():
            return len(os.listdir("/proc/self/fd"))

        before = open_descriptors()
        for _ in range(50):
            assert store.get(record.job_id).job_id == record.job_id
        store.claim_next()
        store.transition(record.job_id, DONE, result_json="{}")
        assert open_descriptors() == before

    def test_fold_skips_torn_and_corrupt_lines(self, tmp_path):
        """The job table is the fold of the log's good lines: a record
        mangled at rest and a torn tail are skipped, and the next
        append welds the tail into a line of its own."""
        log = tmp_path / "jobs.jsonl"
        store = JobStore(log)
        first, _ = store.submit(make_record(repeats=2))
        second, _ = store.submit(make_record(repeats=3))
        store.claim_next()
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        # The claim record rots at rest; a crash tears the next append.
        lines[2] = lines[2].replace('"running"', '"runninG"')
        log.write_text("".join(line + "\n" for line in lines) + '{"op": "sub')
        reader = JobStore(log)
        assert [r.state for r in reader.list_jobs()] == [QUEUED, QUEUED]
        assert reader.claim_next().job_id == first.job_id
        assert store.get(first.job_id).state == RUNNING
        assert store.get(second.job_id).state == QUEUED
        assert len(log.read_text().splitlines()) == 5  # torn tail welded

    def test_every_write_goes_through_the_durable_seam(self, tmp_path):
        """A read-only fault planned on the job log refuses each write
        with a StorageError and changes nothing; reads keep working."""
        store = JobStore(tmp_path / "jobs.jsonl")
        record, _ = store.submit(make_record())
        with FaultPlan(readonly_writes=("jobs.jsonl",)).activated():
            with pytest.raises(StorageError):
                store.submit(make_record(repeats=2))
            with pytest.raises(StorageError):
                store.claim_next()
            assert [r.state for r in store.list_jobs()] == [QUEUED]
        assert store.claim_next().job_id == record.job_id

    @staticmethod
    def _held_append(monkeypatch):
        """Hold every job-log append inside its flush until released;
        returns the (entered, release) events."""
        import repro.service.store as store_module

        entered, release = threading.Event(), threading.Event()
        real = store_module.durable_append

        def held(path, line, fsync=None):
            entered.set()
            assert release.wait(10.0), "the held append was never released"
            real(path, line, fsync)

        monkeypatch.setattr(store_module, "durable_append", held)
        return entered, release

    def test_read_during_a_write_serves_the_last_durable_state(
        self, tmp_path, monkeypatch
    ):
        """A status read never queues behind a write's flush: while the
        claim record is being appended, the store answers at once with
        the job as it was, and shows the claim once it is durable."""
        store = JobStore(tmp_path / "jobs.jsonl")
        record, _ = store.submit(make_record())
        entered, release = self._held_append(monkeypatch)
        claimer = threading.Thread(target=store.claim_next)
        claimer.start()
        try:
            assert entered.wait(10.0)
            states = []
            reader = threading.Thread(
                target=lambda: states.append(store.get(record.job_id).state)
            )
            reader.start()
            reader.join(5.0)
            assert not reader.is_alive(), "the read waited for the flush"
            assert states == [QUEUED]
            assert [r.state for r in store.list_jobs()] == [QUEUED]
        finally:
            release.set()
            claimer.join(10.0)
        assert store.get(record.job_id).state == RUNNING

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_never_pins_the_log_flock(self, tmp_path, monkeypatch):
        """A fork landing while a write holds the log's exclusive flock
        leaves the child without the descriptor: once the parent's write
        ends, the flock is free although the child still lives."""
        import fcntl

        log = tmp_path / "jobs.jsonl"
        store = JobStore(log)
        store.submit(make_record())
        entered, release = self._held_append(monkeypatch)
        read_end, write_end = os.pipe()
        claimer = threading.Thread(target=store.claim_next)
        claimer.start()
        try:
            assert entered.wait(10.0)
            child = os.fork()
            if child == 0:  # the child: wait until told to go, then leave
                os.close(write_end)
                os.read(read_end, 1)
                os._exit(0)
            os.close(read_end)
        finally:
            release.set()
            claimer.join(10.0)
        try:
            with open(log, "rb") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(write_end)  # the child reads EOF and exits
            os.waitpid(child, 0)

    def test_sqlite_only_data_dir_is_refused(self, tmp_path):
        (tmp_path / "jobs.sqlite").write_bytes(b"SQLite format 3\x00")
        with pytest.raises(StorageError, match="jobs.sqlite"):
            SweepService(tmp_path, port=0)
        assert main(["service", "gc", "--data-dir", str(tmp_path), "--keep", "1"]) == 5
        assert main(["service", "fsck", "--data-dir", str(tmp_path)]) == 5
        assert not (tmp_path / "jobs.jsonl").exists()

    def test_check_transition_rejects_unknown_states(self):
        with pytest.raises(ConfigurationError):
            check_transition(QUEUED, "paused")
        with pytest.raises(ConfigurationError):
            check_transition("limbo", DONE)
        check_transition(RUNNING, FAILED)
        check_transition(RUNNING, QUARANTINED)


# ----------------------------------------------------------------------
# The shard scheduler (no HTTP involved)
# ----------------------------------------------------------------------
class TestShardScheduler:
    def run_to_done(self, tmp_path):
        service = start_service(tmp_path)
        try:
            record, _ = service.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            wait_for(
                lambda: service.store.get(record.job_id).state == DONE,
                timeout=120.0,
            )
        finally:
            service.drain()
        return service.store.get(record.job_id)

    def test_clean_job_is_byte_identical_to_serial(self, tmp_path, direct):
        assert self.run_to_done(tmp_path).result_json == direct.to_json()

    def test_second_run_merges_from_checkpoint(self, tmp_path, direct):
        self.run_to_done(tmp_path)
        # Every seed is checkpointed now: a scheduler over a board no
        # worker ever polls must merge without executing anything.
        board = ShardBoard(SweepCheckpoint(tmp_path / "svc" / "checkpoints"))
        outcome = ShardScheduler(board, retry=FAST_RETRY).run_job(
            get_scenario("paper-baseline"), repeats=SEEDS
        )
        assert outcome.to_json() == direct.to_json()
        assert board.workers() == []

    def test_every_seed_quarantined_fails_the_merge(self, tmp_path):
        """Nothing survived: the merge raises the library's uniform
        sweep error, naming the scheduler, the quarantined seeds, their
        attempts and the first error."""
        board = ShardBoard(SweepCheckpoint(tmp_path / "checkpoints"))
        retry = RetryPolicy(max_attempts=1, base_delay=0.001, max_delay=0.001)
        done = threading.Event()

        def fail_every_shard():
            while not done.is_set():
                claim = board.claim("w1")
                if claim is None:
                    time.sleep(0.002)
                    continue
                board.fail_shard(claim["job"], claim["shard"], "w1", "boom")

        failing = threading.Thread(target=fail_every_shard, daemon=True)
        failing.start()
        try:
            with pytest.raises(SweepExecutionError) as excinfo:
                ShardScheduler(board, retry=retry).run_job(
                    get_scenario("paper-baseline"), repeats=2
                )
        finally:
            done.set()
            failing.join(timeout=10.0)
        assert str(excinfo.value) == (
            "ShardScheduler: sweep failed — seeds [0, 1] unrecovered "
            "after 1 attempt(s): boom"
        )

    def test_validates_parameters(self, tmp_path):
        board = ShardBoard(SweepCheckpoint(tmp_path / "checkpoints"))
        with pytest.raises(ConfigurationError):
            ShardScheduler(board, shards_per_job=0)
        with pytest.raises(ConfigurationError):
            SweepService(tmp_path / "svc", shard_workers=0)
        for timeout in (-1.0, 0.0):
            with pytest.raises(ConfigurationError):
                SweepService(tmp_path / "svc", shard_timeout=timeout)
            with pytest.raises(ConfigurationError):
                SweepService(tmp_path / "svc", remote=True, shard_timeout=timeout)
        # Remote mode forks no local worker, so it needs none.
        SweepService(tmp_path / "svc", remote=True, shard_workers=0)

    def test_lower_job_matches_scenario_runner(self):
        spec = get_scenario("paper-baseline")
        topology, config = lower_job(spec, repeats=SEEDS)
        assert config.repeats == SEEDS
        assert config.kernel is None  # no knobs -> spec's own config
        _, overridden = lower_job(spec, repeats=SEEDS, kernel="legacy")
        assert overridden.kernel == "legacy"


# ----------------------------------------------------------------------
# The HTTP front
# ----------------------------------------------------------------------
class TestServiceHttp:
    def test_submit_run_result_and_dedup(self, tmp_path, direct):
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            assert client.health() == {"ok": True}
            submitted = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            assert submitted["created"] is True
            duplicate = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            assert duplicate["created"] is False
            assert duplicate["job"] == submitted["job"]

            status = client.wait(submitted["job"], timeout=120.0)
            assert status["state"] == "done"
            assert "service.submissions.created" in status["metrics"]["counters"]
            # The result endpoint serves the direct run's exact bytes.
            assert client.result_text(submitted["job"]) == direct.to_json() + "\n"
        finally:
            service.drain()

    def test_each_job_builds_its_topology_once(self, tmp_path, monkeypatch, direct):
        """Submit validates a job by lowering it and the scheduler
        thread lowers it again: the service process builds the grid
        once for both (forked shard workers build their own)."""
        from repro.scenarios import spec as spec_module
        from repro.topology import GridTopology

        spec_module._build_topology.cache_clear()
        calls = []
        real_init = GridTopology.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(threading.get_ident())
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(GridTopology, "__init__", counting_init)
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            job = client.submit({"scenario": "paper-baseline", "seeds": SEEDS})["job"]
            assert client.wait(job, timeout=120.0)["state"] == "done"
            assert client.result_text(job) == direct.to_json() + "\n"
        finally:
            service.drain()
        assert len(calls) == 1

    def test_malformed_submissions_are_400_never_a_crash(self, tmp_path):
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            cases = [
                {},  # neither scenario nor spec
                {"scenario": "x", "spec": {}},  # both
                {"scenario": "no-such-scenario"},
                {"scenario": "paper-baseline", "bogus": 1},
                {"scenario": "paper-baseline", "seeds": "five"},
                {"scenario": "paper-baseline", "seeds": 0},
                {"spec": "not-an-object"},
                {"spec": {"name": "x", "algorithm": "rot13"}},
            ]
            for payload in cases:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(payload)
                assert excinfo.value.status == 400, payload
            # A body that is not JSON at all is a 400 too.
            request = urllib.request.Request(
                f"{service.url}/jobs",
                data=b"{definitely not json",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            # ...and the service is still alive and empty afterwards.
            assert client.health() == {"ok": True}
            assert service.store.list_jobs() == []
        finally:
            service.drain()

    def test_unknown_job_is_404_and_pending_result_is_409(self, tmp_path):
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            for probe in (client.status, client.result):
                with pytest.raises(ServiceError) as excinfo:
                    probe("0" * 64)
                assert excinfo.value.status == 404
            # A job that only exists in the store (the drain loop never
            # saw it) serves 409 from the result endpoint.
            record, _ = service.store.submit(make_record(repeats=2))
            service.store.claim_next()
            with pytest.raises(ServiceError) as excinfo:
                client.result(record.job_id)
            assert excinfo.value.status == 409
        finally:
            service.drain()


class TestRetiredKernel:
    """``fast-object`` was an operational kernel once; data dirs and
    clients may still name it."""

    def test_submit_with_retired_kernel_is_400(self, tmp_path):
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"scenario": "paper-baseline", "kernel": "fast-object"})
            assert excinfo.value.status == 400
            assert service.store.list_jobs() == []
        finally:
            service.drain()

    def test_queued_row_with_retired_kernel_fails_and_service_serves_on(
        self, tmp_path
    ):
        """A row an older data dir left queued ends ``failed`` naming the
        valid kernels; the next job still runs."""
        old = JobStore(tmp_path / "svc" / "jobs.jsonl")
        stale, _ = old.submit(make_record(repeats=2, kernel="fast-object"))
        service = start_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            status = client.wait(stale.job_id, timeout=60.0)
            assert status["state"] == "failed"
            failed = service.store.get(stale.job_id)
            assert "'fast', 'legacy'" in failed.error
            fresh = client.submit({"scenario": "paper-baseline", "seeds": 2})
            assert client.wait(fresh["job"], timeout=120.0)["state"] == "done"
        finally:
            service.drain()


# ----------------------------------------------------------------------
# Chaos drills
# ----------------------------------------------------------------------
class TestChaosDrills:
    def test_worker_killed_mid_job_still_byte_identical(self, tmp_path, direct):
        """A shard worker dies with ``kill -9`` semantics mid-job; the
        pool is respawned, the shard retried, and the merged report is
        indistinguishable from a run in which nothing happened."""
        plan = FaultPlan(crash_seeds=(2,), marker_dir=str(tmp_path / "markers"))
        with plan.activated():
            service = start_service(tmp_path)
            try:
                record, created = service.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                assert created
                wait_for(
                    lambda: service.store.get(record.job_id).state == DONE,
                    timeout=120.0,
                )
            finally:
                service.drain()
        # The fault really fired (a vacuous pass would prove nothing).
        assert (tmp_path / "markers" / "crash-2").exists()
        final = service.store.get(record.job_id)
        assert final.result_json == direct.to_json()

    def test_service_killed_mid_job_resumes_byte_identical(self, tmp_path, direct):
        """The whole service "dies" (ServiceHalt, the in-process kill -9
        stand-in: the job record is left ``running``, nothing is
        flushed); a fresh instance over the same data dir recovers,
        finishes only the missing seeds and serves the same bytes."""
        plan = FaultPlan(halt_seeds=(3,), marker_dir=str(tmp_path / "markers"))
        with plan.activated():
            service = start_service(tmp_path)
            try:
                record, _ = service.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                wait_for(lambda: service.halted, timeout=120.0)
            finally:
                service.drain()
            # The fault really fired, and the dead service never
            # touched the record: still running.
            assert (tmp_path / "markers" / "halt-3").exists()
            assert service.store.get(record.job_id).state == RUNNING

            restarted = start_service(tmp_path)
            try:
                client = ServiceClient(restarted.url)
                status = client.wait(record.job_id, timeout=120.0)
                assert status["state"] == "done"
                assert client.result_text(record.job_id) == direct.to_json() + "\n"
            finally:
                restarted.drain()

    def test_halt_plan_env_round_trip(self, tmp_path):
        plan = FaultPlan(halt_seeds=(1, 2), marker_dir=str(tmp_path))
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_before_shard_halts_once_only(self, tmp_path):
        plan = FaultPlan(halt_seeds=(7,), marker_dir=str(tmp_path))
        with pytest.raises(ServiceHalt):
            plan.before_shard((6, 7, 8))
        plan.before_shard((6, 7, 8))  # the restart proceeds
        plan.before_shard((0, 1))  # unlisted seeds never halt

    def test_service_halt_is_not_an_exception(self):
        # The kill -9 stand-in must escape every `except Exception`
        # in the supervision ladder.
        assert not issubclass(ServiceHalt, Exception)
        assert issubclass(ServiceHalt, BaseException)


# ----------------------------------------------------------------------
# The local worker fleet: blame rules and lifetime
# ----------------------------------------------------------------------
def _children(pid):
    """Child pids of ``pid`` (every thread's list, as /proc keeps them)."""
    children = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        children.update(int(c) for c in (task / "children").read_text().split())
    return children


def _alive(pid):
    """Whether ``pid`` runs (a zombie waiting for its reaper does not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _responds(client):
    try:
        return client.health() == {"ok": True}
    except ServiceError:
        return False


class TestLocalFleet:
    def run_under(self, tmp_path, plan, **kwargs):
        """Run one job to ``done`` under ``plan``; returns the final
        record and the ``service.*`` counter deltas it caused."""
        before = default_registry().snapshot()["counters"]
        with plan.activated():
            service = start_service(tmp_path, **kwargs)
            try:
                record, _ = service.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                wait_for(
                    lambda: service.store.get(record.job_id).state == DONE,
                    timeout=120.0,
                )
            finally:
                service.drain()
        after = default_registry().snapshot()["counters"]
        deltas = {
            name: after.get(name, 0) - before.get(name, 0)
            for name in (
                "service.retries",
                "service.respawns",
                "service.timeouts",
                "service.leases.revoked",
            )
        }
        return service.store.get(record.job_id), deltas

    def test_dead_worker_is_charged_one_crash_attempt(self, tmp_path, direct):
        plan = FaultPlan(crash_seeds=(2,), marker_dir=str(tmp_path / "markers"))
        final, deltas = self.run_under(tmp_path, plan)
        assert (tmp_path / "markers" / "crash-2").exists()
        assert final.result_json == direct.to_json()
        assert deltas == {
            "service.retries": 1,
            "service.respawns": 1,
            "service.timeouts": 0,
            "service.leases.revoked": 0,
        }

    def test_wedged_worker_is_killed_and_charged_timeout(self, tmp_path, direct):
        plan = FaultPlan(
            hang_seeds=(2,),
            hang_seconds=120.0,
            marker_dir=str(tmp_path / "markers"),
        )
        started = time.monotonic()
        final, deltas = self.run_under(tmp_path, plan, shard_timeout=2.0)
        assert time.monotonic() - started < 60.0  # killed, not waited out
        assert (tmp_path / "markers" / "hang-2").exists()
        assert final.result_json == direct.to_json()
        assert deltas == {
            "service.retries": 1,
            "service.respawns": 1,
            "service.timeouts": 1,
            "service.leases.revoked": 0,
        }

    def test_spawn_leaves_the_callers_freeze_alone(self):
        """The fork is bracketed by a freeze so the child finalizes
        nothing it inherited, but a heap the caller froze stays frozen
        and an unfrozen one ends unfrozen."""
        import gc

        from repro.service.fleet import WorkerFleet

        fleet = WorkerFleet(ShardBoard(), lambda worker_id: lambda: os._exit(0))
        gc.unfreeze()
        try:
            fleet.spawn()
            assert gc.get_freeze_count() == 0
            gc.freeze()
            frozen = gc.get_freeze_count()
            assert frozen > 0
            fleet.spawn()
            assert gc.get_freeze_count() >= frozen
        finally:
            gc.unfreeze()
            fleet.stop()

    @pytest.mark.skipif(
        not Path("/proc/self/task").is_dir(), reason="needs Linux /proc"
    )
    def test_sigkilled_service_takes_its_workers_along(self, tmp_path):
        """``kill -9`` of ``repro service start`` mid-job: the forked
        local workers notice they are orphans and exit."""
        plan = FaultPlan(
            hang_seeds=(1,),
            hang_seconds=120.0,
            marker_dir=str(tmp_path / "markers"),
        )
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        env = dict(os.environ)
        env[FAULT_PLAN_ENV] = plan.to_env()
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "service", "start",
                "--data-dir", str(tmp_path / "svc"),
                "--port", str(port),
                "--shard-workers", "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
            wait_for(lambda: _responds(client), timeout=60.0)
            client.submit({"scenario": "paper-baseline", "seeds": SEEDS})
            # A worker is wedged inside the job: provably mid-job.
            wait_for(lambda: (tmp_path / "markers" / "hang-1").exists())
            workers = _children(process.pid)
            assert len(workers) == 2
        finally:
            process.kill()
            process.wait()
        wait_for(lambda: not any(_alive(pid) for pid in workers), timeout=5.0)


# ----------------------------------------------------------------------
# The service CLI
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_scenario_export_then_run_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        assert (
            main(["scenario", "export", "paper-baseline", "--out", str(spec_file)])
            == 0
        )
        capsys.readouterr()
        assert ScenarioSpec.from_json(spec_file.read_text()) == get_scenario(
            "paper-baseline"
        )
        assert main(["scenario", "run", str(spec_file), "--seeds", "2"]) == 0
        from_file = capsys.readouterr().out
        assert main(["scenario", "run", "paper-baseline", "--seeds", "2"]) == 0
        assert from_file == capsys.readouterr().out

    def test_export_to_stdout(self, capsys):
        assert main(["scenario", "export", "two-sources"]) == 0
        out = capsys.readouterr().out
        assert ScenarioSpec.from_json(out) == get_scenario("two-sources")

    def test_unknown_scenario_is_a_config_error_exit(self, capsys):
        assert main(["scenario", "export", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_status_result_against_live_service(
        self, tmp_path, capsys, direct
    ):
        service = start_service(tmp_path)
        try:
            url = service.url
            assert (
                main(
                    [
                        "service", "submit", "paper-baseline",
                        "--url", url, "--seeds", str(SEEDS), "--wait",
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert out.endswith(direct.to_json() + "\n")
            job_id = service.store.list_jobs()[0].job_id
            assert main(["service", "status", job_id, "--url", url]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["state"] == "done"
            result_file = tmp_path / "result.json"
            assert (
                main(
                    [
                        "service", "result", job_id,
                        "--url", url, "--out", str(result_file),
                    ]
                )
                == 0
            )
            capsys.readouterr()
            assert result_file.read_text() == direct.to_json() + "\n"
        finally:
            service.drain()

    def test_client_errors_exit_2(self, tmp_path, capsys):
        service = start_service(tmp_path)
        try:
            url = service.url
            assert (
                main(["service", "submit", "no-such-scenario", "--url", url]) == 2
            )
            assert "error:" in capsys.readouterr().err
            assert main(["service", "status", "bogus-job", "--url", url]) == 2
        finally:
            service.drain()
        capsys.readouterr()
