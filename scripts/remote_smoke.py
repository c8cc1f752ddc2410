#!/usr/bin/env python
"""End-to-end smoke drill for the multi-host worker transport (CI leg).

The remote analogue of ``service_smoke.py``, against *real processes*:

1. start a remote-mode service as a subprocess
   (``repro service start --remote``) with a short lease timeout;
2. submit the paper-baseline sweep over HTTP;
3. start worker 1 (``repro worker start --connect``); a
   :class:`~repro.experiments.FaultPlan` in its environment wedges it
   mid-shard (``hang_seeds`` — the marker file proves the hang started,
   i.e. the worker holds a lease with seeds still missing);
4. ``SIGKILL`` worker 1 — no drain, no release, no goodbye;
5. start worker 2; the stalled lease is revoked blame-free, the shard
   re-queued, and worker 2 finishes only the missing seeds;
6. poll to completion and diff the served report against a direct
   in-process ``ScenarioRunner`` run — the bytes must be identical;
7. require that the uploads and polls rode kept-alive connections (at
   most one accepted connection per worker and client);
8. ``SIGTERM`` worker 2 and require a graceful zero-exit drain;
9. start an idle worker with a 1 s poll, so it sits parked in a held
   claim, and require that ``SIGTERM`` ends it with exit 0 within 2 s.

Exit code 0 iff every check passes.  No timing, no BENCH json: this is
a correctness drill for the lease board's partition-tolerance story.
"""

from __future__ import annotations

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

SEEDS = 8
HANG_SEED = 3  # worker 1 wedges before this seed, provably mid-shard
LEASE_TIMEOUT = 2.0  # seconds of stall before the board revokes
IDLE_POLL = 1.0  # the parked worker's claim hold
DRAIN_BOUND = 2.0  # seconds from SIGTERM to a parked worker's exit


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_service(data_dir: Path, port: int, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "service", "start",
            "--remote",
            "--data-dir", str(data_dir),
            "--port", str(port),
            "--shard-timeout", str(LEASE_TIMEOUT),
            "--max-attempts", "3",
        ],
        env=env,
        cwd=REPO_ROOT,
    )


def start_worker(
    url: str, worker_id: str, env: dict, poll: float = 0.05
) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker", "start",
            "--connect", url,
            "--id", worker_id,
            "--poll", str(poll),
        ],
        env=env,
        cwd=REPO_ROOT,
    )


def connections_reused(status: dict, workers: int, clients: int) -> bool:
    """Whether the service accepted at most one connection per worker
    and client, and served several requests per connection — its
    ``service.*`` counters, read off a job status document."""
    counters = status.get("metrics", {}).get("counters", {})
    accepted = counters.get("service.connections", 0)
    requests = counters.get("service.requests", 0)
    print(
        f"{accepted:.0f} connections for {requests:.0f} requests "
        f"({workers} workers, {clients} clients)",
        file=sys.stderr,
    )
    return 0 < accepted <= workers + clients and 4 * accepted <= requests


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
        print(f"remote {name}: {'ok' if passed else 'FAILED'}", file=sys.stderr)

    direct = ScenarioRunner().run("paper-baseline", seeds=SEEDS)
    expected = direct.to_json() + "\n"

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        data_dir = tmp_path / "service-data"
        marker_dir = tmp_path / "markers"
        plan = FaultPlan(
            hang_seeds=(HANG_SEED,),
            hang_seconds=600.0,  # far past every deadline: a real wedge
            marker_dir=str(marker_dir),
        )
        env = dict(os.environ)
        env[FAULT_PLAN_ENV] = plan.to_env()
        env["PYTHONPATH"] = str(REPO_ROOT / "src")

        port = free_port()
        url = f"http://127.0.0.1:{port}"
        client = ServiceClient(url, timeout=10.0)
        hang_marker = marker_dir / f"hang-{HANG_SEED}"

        service = start_worker_1 = worker_2 = idler = None
        try:
            service = start_service(data_dir, port, env)
            wait_for_health(client, time.monotonic() + 30.0)

            job = client.submit(
                {"scenario": "paper-baseline", "seeds": SEEDS}
            )["job"]

            # --- Worker 1 claims, wedges mid-shard, and is SIGKILLed.
            start_worker_1 = start_worker(url, "victim", env)
            deadline = time.monotonic() + 60.0
            while not hang_marker.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            check("worker_wedged_mid_shard", hang_marker.exists())
            start_worker_1.kill()  # SIGKILL: no drain, no lease release
            start_worker_1.wait(timeout=30.0)
            check(
                "worker_died_by_sigkill",
                start_worker_1.returncode == -signal.SIGKILL,
            )

            # --- Worker 2 takes over once the stalled lease is revoked.
            # (It inherits the fault plan, but the hang marker already
            # exists, so the once-only fault does not re-fire.)
            worker_2 = start_worker(url, "rescuer", env)
            deadline = time.monotonic() + 300.0
            while True:
                status = client.status(job)
                if status["state"] in ("done", "failed", "quarantined"):
                    break
                if time.monotonic() > deadline:
                    break
                time.sleep(0.2)
            check("job_done_after_sigkill", status["state"] == "done")
            revoked = (
                status.get("metrics", {})
                .get("counters", {})
                .get("service.leases.revoked", 0)
            )
            check("stalled_lease_was_revoked", revoked >= 1)
            check(
                "connections_are_reused",
                connections_reused(status, workers=2, clients=1),
            )

            served = client.result_text(job)
            check("report_byte_identical_to_direct_run", served == expected)

            # --- Graceful drain: SIGTERM must exit 0, not crash out.
            worker_2.terminate()
            worker_2.wait(timeout=30.0)
            check("sigterm_drains_gracefully", worker_2.returncode == 0)

            # --- An idle worker parked in a held claim drains promptly.
            idler = start_worker(url, "idler", env, poll=IDLE_POLL)
            time.sleep(3.0)  # imported, and parked in a held claim
            idler.terminate()
            signalled = time.monotonic()
            try:
                idler.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass
            drained_in = time.monotonic() - signalled
            print(f"remote idle worker exited {drained_in:.2f}s after SIGTERM",
                  file=sys.stderr)
            check(
                "sigterm_drains_promptly",
                idler.returncode == 0 and drained_in < DRAIN_BOUND,
            )
        finally:
            for process in (start_worker_1, worker_2, idler, service):
                if process is not None and process.poll() is None:
                    process.terminate()
                    try:
                        process.wait(timeout=15.0)
                    except subprocess.TimeoutExpired:
                        process.kill()
                        process.wait()

    if not all(checks.values()):
        failed = [name for name, passed in checks.items() if not passed]
        print(f"REMOTE SMOKE FAILED: {failed}", file=sys.stderr)
        return 1
    print("remote smoke drill passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
