#!/usr/bin/env python
"""Disk-chaos smoke drill: SIGKILL mid-write, ENOSPC, fsck, resume.

The crash-consistency story against *real processes*:

1. start the sweep service as a subprocess and submit the
   paper-baseline sweep over HTTP;
2. a :class:`~repro.experiments.FaultPlan` in the subprocess
   environment tears the first checkpoint append (the service's lease
   board lands half a line, fsyncs it, and the service dies —
   ``SIGKILL`` mid-write); the moment the fault's marker appears, this
   script ``SIGKILL``\\ s the service too, so the data dir is left
   exactly as a crashed box would leave it: a running job and
   checkpoint debris — and the forked workers of the dead service must
   notice and exit within 5 s;
3. ``repro service fsck --data-dir`` must *find* the damage (exit 1:
   a stale running job plus the torn/corrupt checkpoint line) and
   ``--repair`` must fix it conservatively (demote to queued, rewrite
   the checkpoint keeping verified lines); a second pass must be
   clean;
4. the service restarts over the repaired dir; the same plan then
   injects ENOSPC into the result-blob write — the service re-queues
   the job, notes the degradation, and self-heals on retry;
5. the served report must be byte-identical to a direct in-process
   ``ScenarioRunner`` run, and the drained service must leave no
   worker behind;
6. a third life tears a job-log append instead: a plan on
   ``jobs.jsonl`` lands half of the next submission's record and the
   service dies (then this script ``SIGKILL``\\ s it, as in step 2);
   ``fsck`` must report the torn record, ``--repair`` must keep every
   verified record, and the restarted service must still serve the
   finished job's bytes identical to the direct run (and accept the
   lost submission afresh).

Exit code 0 iff every check passes.  A correctness drill for the
storage layer, shaped like ``service_smoke.py`` one layer down.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import FAULT_PLAN_ENV, FaultPlan  # noqa: E402
from repro.scenarios import ScenarioRunner  # noqa: E402
from repro.service import ServiceClient, ServiceError  # noqa: E402

SEEDS = 6


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def children_of(pid: int) -> set:
    """The child pids of ``pid``, read from every thread's
    ``/proc/<pid>/task/<tid>/children`` (empty once it is gone)."""
    children = set()
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.update(int(child) for child in handle.read().split())
    except (OSError, ValueError):
        pass
    return children


def running(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def all_exited(pids: set, timeout: float = 5.0) -> bool:
    """Whether every process in ``pids`` exits within ``timeout``."""
    deadline = time.monotonic() + timeout
    while any(running(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def start_service(data_dir: Path, port: int, env: dict) -> subprocess.Popen:
    # One worker, one shard: seeds run in order, so the torn first
    # append and the kill window are deterministic.
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "service", "start",
            "--data-dir", str(data_dir),
            "--port", str(port),
            "--shard-workers", "1",
            "--shards-per-job", "1",
            "--max-attempts", "3",
        ],
        env=env,
        cwd=REPO_ROOT,
    )


def run_fsck(data_dir: Path, env: dict, repair: bool = False):
    """Run ``repro service fsck`` as a subprocess; returns
    ``(exit_code, report_dict)``."""
    command = [
        sys.executable, "-m", "repro.cli", "service", "fsck",
        "--data-dir", str(data_dir),
    ]
    if repair:
        command.append("--repair")
    completed = subprocess.run(
        command, env=env, cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=120.0,
    )
    try:
        report = json.loads(completed.stdout)
    except ValueError:
        report = {}
    return completed.returncode, report


def wait_for_health(client: ServiceClient, deadline: float) -> None:
    while True:
        try:
            client.health()
            return
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


def main() -> int:
    checks: dict = {}

    def check(name: str, passed: bool) -> None:
        checks[name] = passed
        print(f"fsck {name}: {'ok' if passed else 'FAILED'}", file=sys.stderr)

    direct = ScenarioRunner().run("paper-baseline", seeds=SEEDS)
    expected = direct.to_json() + "\n"

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        data_dir = tmp_path / "service-data"
        markers = tmp_path / "markers"
        plan = FaultPlan(
            torn_writes=("sweep-",),      # SIGKILL mid-checkpoint-append
            enospc_writes=("results/",),  # disk full mid-result-write
            marker_dir=str(markers),
        )
        env = dict(os.environ)
        env[FAULT_PLAN_ENV] = plan.to_env()
        env["PYTHONPATH"] = str(REPO_ROOT / "src")

        port = free_port()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)

        # --- First life: the box "loses power" mid-checkpoint-append.
        process = start_service(data_dir, port, env)
        job = None
        try:
            wait_for_health(client, time.monotonic() + 30.0)
            submitted = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )
            job = submitted["job"]
            check("submission_created", submitted["created"] is True)

            # The torn-write fault fires inside the durable-append seam:
            # the board lands half a line and the service dies.  Its
            # marker file is the signal to SIGKILL the service right
            # there (if it is not gone already).
            workers: set = set()
            deadline = time.monotonic() + 120.0
            while not (markers / "torn-sweep-").exists():
                workers |= children_of(process.pid)
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
            check("torn_write_fired", (markers / "torn-sweep-").exists())
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30.0)
            check("first_life_forked_workers", bool(workers))
            check("dead_service_left_no_workers", all_exited(workers))
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        # --- fsck: find the crash damage, repair it, verify clean.
        code, report = run_fsck(data_dir, env)
        kinds = {f["kind"] for f in report.get("findings", [])}
        check("fsck_flags_damage_with_exit_1", code == 1)
        check("fsck_finds_stale_running_job", "stale_running_job" in kinds)
        # The torn line survives at rest unless a later append beat
        # the SIGKILL to the weld — in which case the debris is a
        # corrupt mid-file line instead.  Either way fsck must see it.
        check(
            "fsck_finds_checkpoint_debris",
            bool(kinds & {"torn_checkpoint_line", "corrupt_checkpoint_line"}),
        )

        code, report = run_fsck(data_dir, env, repair=True)
        check(
            "fsck_repair_exits_0",
            code == 0 and report.get("unrepaired") == 0,
        )
        code, report = run_fsck(data_dir, env)
        check(
            "fsck_clean_after_repair",
            code == 0 and report.get("clean") is True,
        )

        # --- Second life: resume over the repaired dir; ENOSPC hits
        # the result-blob write and the service self-heals.
        process = start_service(data_dir, port, env)
        try:
            wait_for_health(client, time.monotonic() + 30.0)
            deadline = time.monotonic() + 300.0
            status = {"state": "unknown"}
            workers = set()
            while True:
                workers |= children_of(process.pid)
                status = client.status(job)
                if status["state"] in ("done", "failed", "quarantined"):
                    break
                if time.monotonic() > deadline:
                    break
                time.sleep(0.2)
            check("resumed_job_done", status["state"] == "done")
            check("enospc_fired", (markers / "enospc-results_").exists())
            served = client.result_text(job)
            check("report_byte_identical_to_direct_run", served == expected)
            workers |= children_of(process.pid)
        finally:
            process.terminate()
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        check("second_life_forked_workers", bool(workers))
        check("drained_service_left_no_workers", all_exited(workers))

        # --- Third life: SIGKILL mid-job-log-append.
        log = data_dir / "jobs.jsonl"
        verified = log.read_text().splitlines()
        tear_markers = tmp_path / "markers-job-log"
        tear = FaultPlan(torn_writes=("jobs.jsonl",), marker_dir=str(tear_markers))
        tear_env = dict(env)
        tear_env[FAULT_PLAN_ENV] = tear.to_env()
        lost = {"scenario": "two-sources", "seeds": 2}
        process = start_service(data_dir, port, tear_env)
        try:
            wait_for_health(client, time.monotonic() + 30.0)
            try:
                client.submit(lost)  # the torn append ends the service
            except ServiceError:
                pass
            deadline = time.monotonic() + 60.0
            while not (tear_markers / "torn-jobs.jsonl").exists():
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
            check("job_log_tear_fired", (tear_markers / "torn-jobs.jsonl").exists())
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        code, report = run_fsck(data_dir, env)
        kinds = {f["kind"] for f in report.get("findings", [])}
        check(
            "fsck_finds_torn_job_record",
            code == 1 and kinds == {"torn_job_line"},
        )
        code, report = run_fsck(data_dir, env, repair=True)
        check(
            "fsck_repair_keeps_verified_job_records",
            code == 0 and log.read_text().splitlines() == verified,
        )

        # --- Fourth life: the finished job is served as before.
        process = start_service(data_dir, port, env)
        try:
            wait_for_health(client, time.monotonic() + 30.0)
            check("job_survives_torn_log", client.status(job)["state"] == "done")
            check(
                "report_byte_identical_after_torn_log",
                client.result_text(job) == expected,
            )
            again = client.submit(lost)
            check("lost_submission_created_afresh", again["created"] is True)
            final = client.wait(again["job"], timeout=300.0)
            check("lost_submission_done", final["state"] == "done")
        finally:
            process.terminate()
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    if not all(checks.values()):
        failed = [name for name, passed in checks.items() if not passed]
        print(f"FSCK SMOKE FAILED: {failed}", file=sys.stderr)
        return 1
    print("disk-chaos smoke drill passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
