"""Crash-consistent storage under injected disk faults.

The contracts under test, in increasing order of violence:

* the durable-IO seam's primitives: atomic replace (the target never
  holds half an artefact), durable append (one record per write,
  torn-tail welding), and the fsync policy switch;
* checkpoint lines carry a content digest — corruption at rest is
  skipped on load, never parsed into a wrong result;
* the storage chaos kinds (torn/short/enospc/readonly/corrupt) fire
  inside the seam, deterministically, once-only where promised;
* a CLI sweep hitting ENOSPC fails loudly with the dedicated storage
  exit code — distinct from quarantine;
* the service under disk pressure 503s new submissions while claimed
  work completes, and self-heals once writes succeed again;
* ``repro service fsck`` finds every inconsistency a crash can leave
  (and ``--repair`` demotes/prunes so a restart reconverges to
  byte-identical reports);
* satellites: bearer-token auth on mutating endpoints, the
  ``GET /workers`` fleet view, and telemetry export failure never
  costing a run its results.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import EXIT_STORAGE, main
from repro.errors import StorageError
from repro.experiments import (
    FaultPlan,
    RetryPolicy,
    SweepCheckpoint,
    decode_checkpoint_line,
    encode_checkpoint_line,
    result_to_dict,
)
from repro.scenarios import ScenarioRunner
from repro.service import (
    DONE,
    QUEUED,
    ServiceClient,
    ServiceError,
    ShardWorker,
    SweepService,
    WorkerTransport,
    fsck_data_dir,
)
from repro.storage import (
    FSYNC_ENV,
    atomic_write_bytes,
    atomic_write_text,
    durable_append,
    fsync_enabled,
)
from repro.telemetry import TelemetrySession

SEEDS = 5
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)


@pytest.fixture(scope="module")
def direct():
    """The uninterrupted serial run every faulted path must reproduce."""
    return ScenarioRunner().run("paper-baseline", seeds=SEEDS)


def start_service(tmp_path, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return SweepService(
        tmp_path / "svc", port=0, shard_workers=2, **kwargs
    ).start()


def start_remote_service(tmp_path, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.setdefault("shard_timeout", 20.0)
    kwargs.setdefault("shards_per_job", 2)
    kwargs.setdefault("poll_interval", 0.01)
    return SweepService(
        tmp_path / "svc", port=0, remote=True, **kwargs
    ).start()


def wait_for(predicate, timeout=60.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(poll)


def post_json(url, payload, token=None):
    """A raw HTTP POST returning ``(status, document)`` — no client
    retry machinery, so auth and 503 answers can be asserted exactly."""
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


# ----------------------------------------------------------------------
# The durable-IO primitives
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_creates_parents_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "artefact.json"
        atomic_write_text(target, "first\n")
        assert target.read_text() == "first\n"
        atomic_write_text(target, "second\n")
        assert target.read_text() == "second\n"
        # No temp debris survives a successful write.
        assert list(target.parent.glob(".*.tmp-*")) == []

    def test_bytes_and_text_agree(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        atomic_write_text(a, "payload ü\n")
        atomic_write_bytes(b, "payload ü\n".encode("utf-8"))
        assert a.read_bytes() == b.read_bytes()

    def test_failure_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "precious.json"
        atomic_write_text(target, "old bytes\n")
        plan = FaultPlan(readonly_writes=("precious.json",))
        with plan.activated():
            with pytest.raises(StorageError) as excinfo:
                atomic_write_text(target, "new bytes\n")
        assert excinfo.value.os_errno == errno.EROFS
        assert target.read_text() == "old bytes\n"
        assert list(tmp_path.glob(".*.tmp-*")) == []

    def test_fsync_policy_follows_environment(self, monkeypatch):
        monkeypatch.delenv(FSYNC_ENV, raising=False)
        assert fsync_enabled()
        monkeypatch.setenv(FSYNC_ENV, "0")
        assert not fsync_enabled()
        monkeypatch.setenv(FSYNC_ENV, "1")
        assert fsync_enabled()


class TestDurableAppend:
    def test_appends_one_record_per_call(self, tmp_path):
        log = tmp_path / "log.jsonl"
        durable_append(log, "one")
        durable_append(log, "two")
        assert log.read_text() == "one\ntwo\n"

    def test_creates_missing_parent_directories(self, tmp_path):
        log = tmp_path / "deep" / "nested" / "log.jsonl"
        durable_append(log, "one")
        durable_append(log, "two")
        assert log.read_text() == "one\ntwo\n"

    def test_rejects_embedded_newlines(self, tmp_path):
        with pytest.raises(ValueError):
            durable_append(tmp_path / "log.jsonl", "two\nrecords")

    def test_welds_torn_tail_before_new_record(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_bytes(b'{"torn": tr')  # crash debris, no newline
        durable_append(log, '{"fresh": true}')
        lines = log.read_text().split("\n")
        # The debris stays line-local; the new record is intact.
        assert lines[0] == '{"torn": tr'
        assert json.loads(lines[1]) == {"fresh": True}


# ----------------------------------------------------------------------
# Checkpoint line digests
# ----------------------------------------------------------------------
class TestCheckpointDigest:
    def test_round_trip(self, direct):
        line = encode_checkpoint_line(3, direct.results[3])
        seed, result = decode_checkpoint_line(line)
        assert seed == 3
        assert result == direct.results[3]

    def test_mutated_line_is_rejected(self, direct):
        line = encode_checkpoint_line(0, direct.results[0])
        middle = len(line) // 2
        mangled = line[:middle] + "#CORRUPT#" + line[middle + 1 :]
        with pytest.raises((ValueError, KeyError, TypeError)):
            decode_checkpoint_line(mangled)

    def test_legacy_line_without_digest_still_decodes(self, direct):
        entry = {"result": result_to_dict(direct.results[1]), "seed": 1}
        seed, result = decode_checkpoint_line(json.dumps(entry))
        assert seed == 1
        assert result == direct.results[1]

    def test_loader_skips_corrupt_lines(self, tmp_path, direct):
        checkpoint = SweepCheckpoint(tmp_path / "ckpt")
        for seed in range(3):
            checkpoint.append("key", seed, direct.results[seed])
        path = checkpoint.path_for("key")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:40] + "#X#" + lines[1][41:]
        path.write_text("".join(line + "\n" for line in lines))
        loaded = checkpoint.load("key")
        assert sorted(loaded) == [0, 2]
        assert loaded[0] == direct.results[0]


# ----------------------------------------------------------------------
# Storage chaos kinds fire inside the seam
# ----------------------------------------------------------------------
class TestStorageFaultPlan:
    def test_env_round_trip_includes_storage_kinds(self, tmp_path):
        plan = FaultPlan(
            torn_writes=("a",),
            short_writes=("b",),
            enospc_writes=("c",),
            readonly_writes=("d",),
            corrupt_checkpoint_seeds=(1,),
            enospc_after_bytes=8,
            marker_dir=str(tmp_path),
        )
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_once_only_kinds_need_marker_dir(self):
        for kind in ("torn_writes", "short_writes", "enospc_writes"):
            with pytest.raises(ValueError):
                FaultPlan(**{kind: ("x",)})
        with pytest.raises(ValueError):
            FaultPlan(corrupt_checkpoint_seeds=(1,))
        FaultPlan(readonly_writes=("x",))  # persistent: no marker needed

    def test_enospc_fires_once_then_heals(self, tmp_path):
        target = tmp_path / "blob.json"
        plan = FaultPlan(
            enospc_writes=("blob.json",), marker_dir=str(tmp_path / "markers")
        )
        with plan.activated():
            with pytest.raises(StorageError) as excinfo:
                atomic_write_text(target, "x" * 100)
            assert excinfo.value.os_errno == errno.ENOSPC
            assert not target.exists()
            assert list(tmp_path.glob(".*.tmp-*")) == []
            atomic_write_text(target, "x" * 100)  # marker consumed
        assert target.read_text() == "x" * 100

    def test_short_write_truncates_silently_and_welds(self, tmp_path):
        log = tmp_path / "shorty.jsonl"
        record = json.dumps({"seed": 9, "payload": "p" * 40})
        plan = FaultPlan(
            short_writes=("shorty",),
            enospc_after_bytes=16,
            marker_dir=str(tmp_path / "markers"),
        )
        with plan.activated():
            durable_append(log, record)  # lies: reports success
            assert log.read_bytes() == (record + "\n").encode()[:16]
            durable_append(log, record)  # welds the lying tail
        lines = log.read_text().split("\n")
        assert lines[0] == record[:16]  # the truncated debris
        assert json.loads(lines[1]) == json.loads(record)

    def test_readonly_is_persistent(self, tmp_path):
        target = tmp_path / "ro.txt"
        plan = FaultPlan(readonly_writes=("ro.txt",))
        with plan.activated():
            for _ in range(3):
                with pytest.raises(StorageError):
                    atomic_write_text(target, "nope")
        assert not target.exists()


# ----------------------------------------------------------------------
# CLI: disk failure is a typed, distinct exit
# ----------------------------------------------------------------------
class TestCliStorageExit:
    def test_enospc_on_report_write_exits_storage(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        plan = FaultPlan(
            enospc_writes=("report.json",),
            marker_dir=str(tmp_path / "markers"),
        )
        with plan.activated():
            code = main(
                [
                    "scenario", "run", "paper-baseline",
                    "--seeds", "2", "--quiet", "--out", str(out),
                ]
            )
        assert code == EXIT_STORAGE
        assert not out.exists()
        assert "storage" in capsys.readouterr().err

    def test_enospc_mid_checkpoint_sweep_exits_storage(self, tmp_path, capsys):
        plan = FaultPlan(
            enospc_writes=("sweep-",),
            marker_dir=str(tmp_path / "markers"),
        )
        with plan.activated():
            code = main(
                [
                    "scenario", "run", "paper-baseline",
                    "--seeds", "3", "--quiet",
                    "--checkpoint", str(tmp_path / "ckpt"),
                ]
            )
        assert code == EXIT_STORAGE
        assert "storage" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Service under disk chaos
# ----------------------------------------------------------------------
class TestServiceStorageChaos:
    def test_torn_checkpoint_append_is_byte_identical(self, tmp_path, direct):
        """The service is killed mid-checkpoint-append (the SIGKILL
        stand-in lands half a line and exits the process doing the
        append — the service itself, since the board appends
        server-side).  A restart over the same data dir welds the torn
        line, re-runs the lost seed, and the report is byte-identical."""
        plan = FaultPlan(
            torn_writes=("sweep-",), marker_dir=str(tmp_path / "markers")
        )

        def first_life():
            start_service(tmp_path).submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            time.sleep(120.0)  # the torn append ends this process first

        with plan.activated():
            # The first life runs in a forked child, so the process the
            # fault kills is not this test runner.
            child = multiprocessing.get_context("fork").Process(target=first_life)
            child.start()
            child.join(timeout=120.0)
            assert child.exitcode == 23  # died mid-append
            service = start_service(tmp_path)
            try:
                (record,) = service.store.list_jobs()
                wait_for(
                    lambda: service.store.get(record.job_id).state == DONE,
                    timeout=120.0,
                )
            finally:
                service.drain()
        assert (tmp_path / "markers" / "torn-sweep-").exists()
        assert service.store.get(record.job_id).result_json == direct.to_json()

    def test_corrupt_checkpoint_line_recovers_byte_identical(
        self, tmp_path, direct
    ):
        """A checkpoint line is silently mangled at append time; the
        digest makes the loader drop it, the scheduler's recovery pass
        re-runs the lost seed, and the report is byte-identical."""
        plan = FaultPlan(
            corrupt_checkpoint_seeds=(2,),
            marker_dir=str(tmp_path / "markers"),
        )
        with plan.activated():
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
        assert (tmp_path / "markers" / "corrupt-2").exists()
        assert service.store.get(record.job_id).result_json == direct.to_json()

    def test_enospc_on_result_blob_requeues_and_self_heals(
        self, tmp_path, direct
    ):
        """The disk fills exactly as the finished report is persisted:
        the job goes back to queued (its seeds are checkpointed), the
        service notes the degradation, and the retry — cheap, the sweep
        is already done — lands the same bytes."""
        plan = FaultPlan(
            enospc_writes=("results/",), marker_dir=str(tmp_path / "markers")
        )
        with plan.activated():
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
        assert (tmp_path / "markers" / "enospc-results_").exists()
        assert service.store.get(record.job_id).result_json == direct.to_json()

    def test_disk_pressure_503s_new_jobs_until_writes_heal(
        self, tmp_path, direct
    ):
        """Under persistent write failure on the results dir, claimed
        work keeps completing (checkpoints live elsewhere) but new
        submissions are refused with 503; when the filesystem heals,
        the stuck job lands and submissions are accepted again."""
        plan = FaultPlan(readonly_writes=("results/",))
        service = start_service(tmp_path)
        try:
            with plan.activated():
                record, _ = service.submit(
                    {"scenario": "paper-baseline", "seeds": SEEDS}
                )
                # The sweep finishes, the blob write fails, the service
                # degrades and the job goes back to queued.
                wait_for(lambda: service._storage_error is not None,
                         timeout=120.0)
                status, reply = post_json(
                    f"{service.url}/jobs",
                    {"scenario": "two-sources", "seeds": 2},
                )
                assert status == 503
                assert "degraded" in reply["error"]
            # Plan deactivated: the filesystem is "remounted rw".
            wait_for(
                lambda: service.store.get(record.job_id).state == DONE,
                timeout=120.0,
            )
            assert (
                service.store.get(record.job_id).result_json
                == direct.to_json()
            )
            status, reply = post_json(
                f"{service.url}/jobs", {"scenario": "paper-baseline",
                                        "seeds": SEEDS},
            )
            assert status == 200  # deduped against the healed job
        finally:
            service.drain()


    def test_job_log_fault_503s_submissions_until_it_heals(
        self, tmp_path, direct
    ):
        """A job log the disk refuses: a submission is answered 503 and
        leaves no job behind; when the filesystem heals the same
        submission is accepted and lands the same bytes."""
        service = start_service(tmp_path)
        payload = {"scenario": "paper-baseline", "seeds": SEEDS}
        try:
            with FaultPlan(readonly_writes=("jobs.jsonl",)).activated():
                status, reply = post_json(f"{service.url}/jobs", payload)
                assert status == 503
                assert "jobs.jsonl" in reply["error"]
                assert service.store.list_jobs() == []
            status, reply = post_json(f"{service.url}/jobs", payload)
            assert status == 201
            wait_for(
                lambda: service.store.get(reply["job"]).state == DONE,
                timeout=120.0,
            )
            assert (
                service.store.get(reply["job"]).result_json == direct.to_json()
            )
        finally:
            service.drain()

    def test_enospc_on_a_job_record_requeues_and_heals(self, tmp_path, direct):
        """The disk fills as the service appends the job's claim or
        terminal record: the service degrades and backs off (its
        dispatcher survives), and the job lands once a write succeeds."""
        plan = FaultPlan(
            enospc_writes=("jobs.jsonl",), marker_dir=str(tmp_path / "markers")
        )
        service = start_service(tmp_path)
        try:
            record, _ = service.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            with plan.activated():
                wait_for(
                    lambda: service.store.get(record.job_id).state == DONE,
                    timeout=120.0,
                )
        finally:
            service.drain()
        assert (tmp_path / "markers" / "enospc-jobs.jsonl").exists()
        assert service.store.get(record.job_id).result_json == direct.to_json()


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
class TestFsck:
    def run_job_to_done(self, tmp_path, seeds=SEEDS):
        service = start_service(tmp_path)
        try:
            record, _ = service.submit(
                {"scenario": "paper-baseline", "seeds": seeds}
            )
            wait_for(
                lambda: service.store.get(record.job_id).state == DONE,
                timeout=120.0,
            )
        finally:
            service.drain()
        return service.data_dir, record.job_id

    def test_clean_dir_reports_zero_findings(self, tmp_path):
        data_dir, _ = self.run_job_to_done(tmp_path)
        report = fsck_data_dir(data_dir)
        assert report["clean"] is True
        assert report["findings"] == []
        assert report["jobs"] == 1
        assert report["checkpoints"] == 1
        assert report["result_blobs"] == 1

    def test_empty_dir_is_clean(self, tmp_path):
        report = fsck_data_dir(tmp_path)
        assert report["clean"] is True
        assert report["store"] is False

    def test_detects_and_repairs_crash_damage(self, tmp_path, direct):
        """Every kind of crash debris at once: fsck reports all of it,
        ``--repair`` demotes/prunes conservatively, a second pass is
        clean, and a restarted service reconverges byte-identically."""
        data_dir, job_id = self.run_job_to_done(tmp_path)
        checkpoints = data_dir / "checkpoints"
        results = data_dir / "results"
        real_checkpoint = next(checkpoints.glob("sweep-*.jsonl"))

        # 1. atomic-write temp debris
        (checkpoints / ".sweep-x.jsonl.tmp-12345").write_text("half")
        # 2. a torn trailing line on the real checkpoint
        with open(real_checkpoint, "ab") as handle:
            handle.write(b'{"seed": 99, "res')
        # 3. an orphan checkpoint no job accounts for
        (checkpoints / "sweep-deadbeef.jsonl").write_text("{}\n")
        # 4. the done job's result blob corrupted at rest
        (results / f"{job_id}.json").write_text("not json at all")
        # 5. an orphan result blob
        (results / "unknown-job.json").write_text("{}\n")

        report = fsck_data_dir(data_dir)
        kinds = {f["kind"] for f in report["findings"]}
        assert kinds == {
            "stale_temp_file",
            "torn_checkpoint_line",
            "corrupt_checkpoint_line",  # the orphan's unparseable line
            "orphan_checkpoint",
            "corrupt_result_blob",
            "orphan_result_blob",
        }
        assert report["clean"] is False
        assert report["repaired"] == 0

        repaired = fsck_data_dir(data_dir, repair=True)
        assert repaired["unrepaired"] == 0
        # The inconsistent job was demoted, never patched in place.
        from repro.service import JobStore

        assert JobStore(data_dir / "jobs.jsonl").get(job_id).state == QUEUED
        assert not (results / f"{job_id}.json").exists()
        assert not (results / "unknown-job.json").exists()
        assert not (checkpoints / "sweep-deadbeef.jsonl").exists()
        # The repaired checkpoint holds exactly the verified lines.
        lines = real_checkpoint.read_text().splitlines()
        assert len(lines) == SEEDS
        for line in lines:
            decode_checkpoint_line(line)

        assert fsck_data_dir(data_dir)["clean"] is True

        # Resume: the demoted job reconverges from the surviving
        # checkpoint lines to the exact same bytes.
        service = start_service(tmp_path)
        try:
            wait_for(
                lambda: service.store.get(job_id).state == DONE, timeout=120.0
            )
            assert service.store.get(job_id).result_json == direct.to_json()
        finally:
            service.drain()

    def test_job_log_debris_is_found_and_repaired(self, tmp_path, direct):
        """The job log gets the checkpoints' line checks: a record
        rotted at rest and a torn tail are reported, ``--repair`` keeps
        exactly the verified records, and the job is still served."""
        data_dir, job_id = self.run_job_to_done(tmp_path)
        log = data_dir / "jobs.jsonl"
        lines = log.read_text().splitlines()
        good = lines[:-1]
        rotted = lines[-1].replace('"done"', '"dane"')
        log.write_text(
            "".join(line + "\n" for line in good) + rotted + "\n" + '{"op": "st'
        )
        report = fsck_data_dir(data_dir)
        findings = {f["kind"]: f for f in report["findings"]}
        assert set(findings) == {
            "corrupt_job_line",
            "torn_job_line",
            "orphan_result_blob",  # the running job's blob
            "stale_running_job",  # its terminal record was the rotted one
        }
        fsck_data_dir(data_dir, repair=True)
        repaired = log.read_text().splitlines()
        assert repaired[:-1] == good  # every verified record kept
        assert json.loads(repaired[-1])["op"] == "demote"
        assert fsck_data_dir(data_dir)["clean"] is True
        service = start_service(tmp_path)
        try:
            wait_for(
                lambda: service.store.get(job_id).state == DONE, timeout=120.0
            )
            assert service.store.get(job_id).result_json == direct.to_json()
        finally:
            service.drain()

    def test_missing_blob_is_found_and_demoted(self, tmp_path):
        data_dir, job_id = self.run_job_to_done(tmp_path)
        (data_dir / "results" / f"{job_id}.json").unlink()
        report = fsck_data_dir(data_dir)
        assert {f["kind"] for f in report["findings"]} == {
            "missing_result_blob"
        }
        fsck_data_dir(data_dir, repair=True)
        from repro.service import JobStore

        assert JobStore(data_dir / "jobs.jsonl").get(job_id).state == QUEUED

    @pytest.mark.parametrize(
        "blob, kind",
        [
            ("[]", "corrupt_result_blob"),
            ('{"runs": [], "failures": 3}', "result_blob_mismatch"),
        ],
        ids=["not-an-object", "failures-not-a-list"],
    )
    def test_malformed_blob_is_a_finding_not_a_crash(self, tmp_path, blob, kind):
        from repro.scenarios import get_scenario
        from repro.service import JobRecord, JobStore, job_key

        spec = get_scenario("paper-baseline")
        store = JobStore(tmp_path / "jobs.jsonl")
        record, _ = store.submit(
            JobRecord(
                job_id=job_key(spec, 2, 0),
                spec_json=spec.to_json(indent=None),
                repeats=2,
                base_seed=0,
                kernel=None,
                setup_kernel=None,
                state=QUEUED,
            )
        )
        store.claim_next()
        store.transition(record.job_id, DONE, result_json=blob)
        report = fsck_data_dir(tmp_path, repair=True)
        assert [f["kind"] for f in report["findings"]] == [kind]
        assert store.get(record.job_id).state == QUEUED

    def test_cli_exit_codes(self, tmp_path, capsys):
        # Missing dir: usage error.
        assert main(
            ["service", "fsck", "--data-dir", str(tmp_path / "absent")]
        ) == 2
        capsys.readouterr()
        # A dir with unrepaired findings: exit 1, JSON on stdout.
        bad = tmp_path / "dirty"
        (bad / "checkpoints").mkdir(parents=True)
        (bad / "checkpoints" / "sweep-abc.jsonl").write_text("garbage\n")
        assert main(["service", "fsck", "--data-dir", str(bad)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        # Repair, then a clean pass: exit 0 both times.
        assert main(
            ["service", "fsck", "--data-dir", str(bad), "--repair"]
        ) == 0
        capsys.readouterr()
        assert main(["service", "fsck", "--data-dir", str(bad)]) == 0
        assert json.loads(capsys.readouterr().out)["clean"] is True


# ----------------------------------------------------------------------
# Satellite: bearer-token auth
# ----------------------------------------------------------------------
class TestAuth:
    def test_mutating_endpoints_require_the_token(self, tmp_path):
        service = start_service(tmp_path, token="s3kr1t")
        try:
            payload = {"scenario": "paper-baseline", "seeds": 2}
            status, reply = post_json(f"{service.url}/jobs", payload)
            assert status == 401
            status, _ = post_json(
                f"{service.url}/jobs", payload, token="wrong"
            )
            assert status == 401
            status, reply = post_json(
                f"{service.url}/jobs", payload, token="s3kr1t"
            )
            assert status == 201
            # Reads stay open: observability must not need the secret.
            with urllib.request.urlopen(
                f"{service.url}/jobs", timeout=30.0
            ) as response:
                assert response.status == 200
            client = ServiceClient(service.url, token="s3kr1t")
            client.wait(reply["job"], timeout=120.0)
        finally:
            service.drain()

    def test_worker_needs_the_token_too(self, tmp_path, direct):
        service = start_remote_service(tmp_path, token="s3kr1t")
        try:
            bare = WorkerTransport(service.url, retry=FAST_RETRY)
            with pytest.raises(ServiceError) as excinfo:
                bare.post("/shards/claim", {"worker": "intruder"})
            assert excinfo.value.status == 401

            client = ServiceClient(service.url, token="s3kr1t")
            submitted = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            worker = ShardWorker(
                service.url,
                worker_id="w-auth",
                poll_interval=0.02,
                retry=FAST_RETRY,
                token="s3kr1t",
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                client.wait(submitted["job"], timeout=120.0)
                assert (
                    client.result_text(submitted["job"])
                    == direct.to_json() + "\n"
                )
            finally:
                worker.request_stop()
                thread.join(timeout=30.0)
        finally:
            service.drain()


# ----------------------------------------------------------------------
# Satellite: the /workers fleet view
# ----------------------------------------------------------------------
class TestWorkersEndpoint:
    def test_local_service_has_no_fleet(self, tmp_path, capsys):
        service = start_service(tmp_path)
        try:
            assert ServiceClient(service.url).workers() == {
                "remote": False,
                "workers": [],
            }
            assert main(["service", "workers", "--url", service.url]) == 0
            assert "not in remote mode" in capsys.readouterr().out
        finally:
            service.drain()

    def test_fleet_summary_tracks_uploads(self, tmp_path, capsys, direct):
        service = start_remote_service(tmp_path)
        try:
            client = ServiceClient(service.url)
            submitted = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            worker = ShardWorker(
                service.url,
                worker_id="w-fleet",
                poll_interval=0.02,
                retry=FAST_RETRY,
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                client.wait(submitted["job"], timeout=120.0)
            finally:
                worker.request_stop()
                thread.join(timeout=30.0)
            summary = client.workers()
            assert summary["remote"] is True
            entry = {w["worker"]: w for w in summary["workers"]}["w-fleet"]
            assert entry["seeds_landed"] == SEEDS
            assert entry["claims"] >= 1
            assert entry["shards_held"] == 0
            assert entry["seconds_since_upload"] >= 0
            assert main(["service", "workers", "--url", service.url]) == 0
            assert "w-fleet" in capsys.readouterr().out
        finally:
            service.drain()


# ----------------------------------------------------------------------
# Satellite: telemetry export failure never costs results
# ----------------------------------------------------------------------
class TestTelemetryExportFailure:
    def test_session_exit_warns_instead_of_raising(self, tmp_path, capsys):
        plan = FaultPlan(readonly_writes=("spans.jsonl",))
        with plan.activated():
            with TelemetrySession(
                directory=tmp_path / "tel", label="drill"
            ) as session:
                session.registry.inc("drill.events")
        err = capsys.readouterr().err
        assert "telemetry export" in err
        assert "results are unaffected" in err

    def test_cli_run_keeps_results_when_telemetry_dir_fails(
        self, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        plan = FaultPlan(readonly_writes=("spans.jsonl",))
        with plan.activated():
            code = main(
                [
                    "scenario", "run", "paper-baseline",
                    "--seeds", "2", "--quiet",
                    "--out", str(out),
                    "--telemetry", str(tmp_path / "tel"),
                ]
            )
        assert code == 0
        assert out.exists()
        assert "results are unaffected" in capsys.readouterr().err
