"""``service start|fsck|workers|gc|submit|status|result`` and ``worker
start``: the sweep service, its clients and its remote workers."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from ..errors import EXIT_QUARANTINED, EXIT_SWEEP_FAILED
from .common import (
    imports_done,
    kernel_flags,
    quiet_flags,
    resolve_scenario,
    runner_options,
    seed_flags,
    seeds_flags,
    status,
    subcommand,
    write_out,
)

DEFAULT_SERVICE_URL = "http://127.0.0.1:8642"


def _cmd_service_start(args: argparse.Namespace) -> int:
    import signal
    import threading

    from ..experiments import RetryPolicy
    from ..service import SweepService

    retry = (
        RetryPolicy(max_attempts=args.max_attempts)
        if args.max_attempts is not None
        else None
    )
    service = SweepService(
        args.data_dir,
        host=args.host,
        port=args.port,
        shard_workers=args.shard_workers,
        shards_per_job=args.shards_per_job,
        shard_timeout=args.shard_timeout,
        retry=retry,
        schedule_store=args.schedule_store,
        remote=args.remote,
        max_jobs=args.max_jobs,
        token=args.token,
    )
    stop_requested = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop_requested.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    service.start()
    imports_done()
    status(args, f"sweep service listening on {service.url}")
    status(args, f"data dir: {Path(args.data_dir).resolve()}")
    if args.remote:
        status(
            args,
            "remote mode: shards run on 'repro-slp-das worker start "
            f"--connect {service.url}' workers",
        )
    while not stop_requested.is_set() and not service.stopping:
        stop_requested.wait(0.2)
    status(args, "draining: stopping shards, re-queueing running jobs")
    service.drain()
    return 0


def _cmd_service_gc(args: argparse.Namespace) -> int:
    from ..experiments import SweepCheckpoint
    from ..scenarios import lower_job
    from ..service import JobStore, job_log_path

    store_path = job_log_path(args.data_dir)
    if not store_path.exists():
        print(f"error: no job store at {store_path}", file=sys.stderr)
        return 2
    store = JobStore(store_path)
    evicted = store.gc(args.keep)
    checkpoint = SweepCheckpoint(Path(args.data_dir) / "checkpoints")
    pruned = 0
    for record in evicted:
        # Best-effort: drop the evicted job's per-seed checkpoint too
        # (its report blob is gone, so the seeds only cost disk).
        try:
            topology, config = lower_job(
                record.spec(),
                repeats=record.repeats,
                base_seed=record.base_seed,
                kernel=record.kernel,
                setup_kernel=record.setup_kernel,
            )
            checkpoint.clear(checkpoint.key_for(topology, config))
            pruned += 1
        except Exception:
            continue
    status(
        args,
        f"evicted {len(evicted)} result blob(s), pruned {pruned} "
        f"checkpoint file(s); kept the {args.keep} most recent",
    )
    for record in evicted:
        print(record.job_id)
    return 0


def _cmd_worker_start(args: argparse.Namespace) -> int:
    from ..experiments import RetryPolicy
    from ..service import ShardWorker, worker_main

    retry = (
        RetryPolicy(max_attempts=args.max_attempts)
        if args.max_attempts is not None
        else None
    )
    imports_done()
    worker = ShardWorker(
        args.connect,
        worker_id=args.id,
        poll_interval=args.poll,
        timeout=args.timeout,
        retry=retry,
        idle_exit=args.idle_exit,
        token=args.token,
    )
    status(args, f"worker {worker.worker_id} pulling from {args.connect}")
    executed = worker_main(worker)
    status(args, f"worker {worker.worker_id} exiting ({executed} seeds run)")
    return 0


def _service_client(args: argparse.Namespace):
    from ..service import ServiceClient

    return ServiceClient(
        args.url,
        timeout=args.timeout,
        token=getattr(args, "token", None),
    )


def _finished_exit(state: str) -> int:
    if state == "quarantined":
        return EXIT_QUARANTINED
    if state == "failed":
        return EXIT_SWEEP_FAILED
    return 0


def _cmd_service_submit(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    scenario = resolve_scenario(args.name)
    payload: dict = (
        {"spec": scenario.to_dict()}
        if not isinstance(scenario, str)
        else {"scenario": scenario}
    )
    if args.seeds is not None:
        payload["seeds"] = args.seeds
    if args.seed is not None:
        payload["base_seed"] = args.seed
    payload.update(
        (name, value)
        for name, value in runner_options(args).items()
        if value is not None
    )
    client = _service_client(args)
    try:
        reply = client.submit(payload)
        job = reply["job"]
        status(
            args,
            f"job {job} {'created' if reply['created'] else 'deduplicated'} "
            f"({reply['state']})",
        )
        if not args.wait:
            print(job)
            return 0
        final = client.wait(job, timeout=args.timeout)
        status(args, f"job {job} finished: {final['state']}")
        if final["state"] in ("done", "quarantined"):
            sys.stdout.write(client.result_text(job))
        return _finished_exit(final["state"])
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_service_status(args: argparse.Namespace) -> int:
    import json as _json

    from ..service import ServiceError

    client = _service_client(args)
    try:
        job_status = client.status(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_json.dumps(job_status, indent=2, sort_keys=True))
    return 0


def _cmd_service_result(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    client = _service_client(args)
    try:
        text = client.result_text(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_out(args, text)
    state = client.status(args.job)["state"]
    return _finished_exit(state)


def _cmd_service_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from ..service import fsck_data_dir

    data_dir = Path(args.data_dir)
    if not data_dir.is_dir():
        print(f"error: no data dir at {data_dir}", file=sys.stderr)
        return 2
    report = fsck_data_dir(data_dir, repair=args.repair)
    print(_json.dumps(report, indent=2, sort_keys=True))
    if report["clean"] or report["unrepaired"] == 0:
        return 0
    return 1


def _cmd_service_workers(args: argparse.Namespace) -> int:
    from ..service import ServiceError

    client = _service_client(args)
    try:
        summary = client.workers()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workers = summary.get("workers") or []
    if not summary.get("remote", False):
        print("service is not in remote mode (its own forked workers lease shards)")
    if not workers:
        print("no workers have claimed shards yet")
        return 0
    header = (
        f"{'worker':<28} {'shards':>6} {'claims':>6} "
        f"{'seeds':>6} {'last upload':>12}"
    )
    print(header)
    print("-" * len(header))
    for entry in workers:
        since = entry.get("seconds_since_upload")
        recency = "never" if since is None else f"{since:.1f}s ago"
        print(
            f"{entry['worker']:<28} {entry['shards_held']:>6} "
            f"{entry['claims']:>6} {entry['seeds_landed']:>6} {recency:>12}"
        )
    return 0


def _client_flags(flags: argparse.ArgumentParser) -> None:
    """How a service client reaches the service."""
    flags.add_argument(
        "--url",
        default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default {DEFAULT_SERVICE_URL})",
    )
    flags.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="client timeout in seconds (and --wait deadline)",
    )


def _add_start(sub) -> None:
    svc_start = subcommand(
        sub,
        "start",
        help="run the sweep service in the foreground",
        flags=(quiet_flags,),
    )
    svc_start.add_argument(
        "--data-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help="durable state: job store, per-seed checkpoints, schedule store",
    )
    svc_start.add_argument("--host", default="127.0.0.1")
    svc_start.add_argument("--port", type=int, default=8642)
    svc_start.add_argument(
        "--shard-workers",
        type=int,
        default=2,
        help="local worker processes the service forks at its first job "
        "and keeps for its lifetime (= concurrently running shards; "
        "ignored with --remote)",
    )
    svc_start.add_argument(
        "--shards-per-job",
        type=int,
        default=None,
        help="shards to split each job into (default: 2 x shard workers)",
    )
    svc_start.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="the lease timeout: seconds a leased shard may go without "
        "landing a seed (a stall timeout, not a total-duration cap; "
        "default 60). A local worker past it is killed, charged a "
        "'timeout' attempt and respawned; a remote lease is re-queued "
        "blame-free",
    )
    svc_start.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="retry attempts per shard before bisection/quarantine",
    )
    svc_start.add_argument(
        "--schedule-store",
        type=Path,
        default=None,
        metavar="PATH",
        help="attach a shared on-disk schedule store so concurrent jobs "
        "over one topology dedup schedule builds",
    )
    svc_start.add_argument(
        "--remote",
        action="store_true",
        help="fork no local workers: shards run only on 'worker start "
        "--connect' processes leasing over HTTP (local workers lease "
        "through the same endpoints)",
    )
    svc_start.add_argument(
        "--max-jobs",
        type=int,
        default=1,
        help="jobs to run concurrently (default 1: FIFO)",
    )
    svc_start.add_argument(
        "--token",
        default=None,
        help="require this bearer token on every mutating endpoint "
        "(submits and shard traffic answer 401 without it; reads stay "
        "open)",
    )
    svc_start.set_defaults(func=_cmd_service_start, imports_first=True)


def _add_fsck(sub) -> None:
    svc_fsck = sub.add_parser(
        "fsck",
        help="audit a service --data-dir offline: cross-check job rows, "
        "checkpoint files and result blobs; --repair prunes orphans and "
        "demotes inconsistent jobs to queued",
    )
    svc_fsck.add_argument(
        "--data-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help="the service's durable state directory (service must be stopped)",
    )
    svc_fsck.add_argument(
        "--repair",
        action="store_true",
        help="fix what can be fixed conservatively (prune orphans and "
        "crash debris, rewrite checkpoints keeping verified lines, "
        "demote inconsistent jobs to queued); never patches results "
        "in place",
    )
    svc_fsck.set_defaults(func=_cmd_service_fsck, quiet=False)


def _add_workers(sub) -> None:
    svc_workers = subcommand(
        sub,
        "workers",
        help="show the worker fleet (held shards, seeds landed, "
        "upload recency) from the service's lease board",
        flags=(_client_flags,),
    )
    svc_workers.set_defaults(func=_cmd_service_workers, quiet=False)


def _add_gc(sub) -> None:
    svc_gc = subcommand(
        sub,
        "gc",
        help="evict old terminal jobs' result blobs (records stay for "
        "dedup); run offline against the service's --data-dir",
        flags=(quiet_flags,),
    )
    svc_gc.add_argument(
        "--data-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help="the service's durable state directory",
    )
    svc_gc.add_argument(
        "--keep",
        type=int,
        required=True,
        metavar="N",
        help="keep the N most recently submitted terminal results "
        "(ordering is the store's submit counter, never a wall clock)",
    )
    svc_gc.set_defaults(func=_cmd_service_gc)


def _add_submit(sub) -> None:
    svc_submit = subcommand(
        sub,
        "submit",
        help="submit a scenario (name or spec JSON file) as a job",
        flags=(
            _client_flags,
            seeds_flags,
            seed_flags,
            kernel_flags,
            quiet_flags,
        ),
    )
    svc_submit.add_argument(
        "name", help="registered scenario name or path to a JSON spec document"
    )
    svc_submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes and print its report "
        "(exit codes as for 'scenario run')",
    )
    svc_submit.add_argument(
        "--token",
        default=None,
        help="bearer token for a 'service start --token' instance",
    )
    svc_submit.set_defaults(func=_cmd_service_submit, timeout=600.0)


def _add_status(sub) -> None:
    svc_status = subcommand(
        sub,
        "status",
        help="print one job's status document",
        flags=(_client_flags,),
    )
    svc_status.add_argument("job", help="job id (from 'submit')")
    svc_status.set_defaults(func=_cmd_service_status, quiet=False)


def _add_result(sub) -> None:
    svc_result = subcommand(
        sub,
        "result",
        help="print (or save) one finished job's report",
        flags=(_client_flags, quiet_flags),
    )
    svc_result.add_argument("job", help="job id (from 'submit')")
    svc_result.add_argument(
        "--out", type=Path, default=None, help="write the report to a file"
    )
    svc_result.set_defaults(func=_cmd_service_result)


def _add_worker_start(sub) -> None:
    wrk_start = subcommand(
        sub,
        "start",
        help="pull shard leases from a remote-mode service, run them, "
        "and upload results (SIGTERM drains gracefully)",
        flags=(quiet_flags,),
    )
    wrk_start.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="base URL of a 'service start --remote' instance",
    )
    wrk_start.add_argument(
        "--id",
        default=None,
        help="stable worker id (default: hostname-pid)",
    )
    wrk_start.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="idle claim-poll interval",
    )
    wrk_start.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-request HTTP timeout",
    )
    wrk_start.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="transport retry attempts per request before the shard "
        "is abandoned to the lease timeout",
    )
    wrk_start.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit once no work has been claimable for this long "
        "(default: poll forever)",
    )
    wrk_start.add_argument(
        "--token",
        default=None,
        help="bearer token for a 'service start --token' instance",
    )
    wrk_start.set_defaults(func=_cmd_worker_start, imports_first=True)


#: Each group: its help text, its ``dest`` and its subcommands in help
#: order.
_GROUPS = {
    "service": (
        "the resilient sweep service: durable jobs over HTTP "
        "(start/submit/status/result)",
        "service_command",
        {
            "start": _add_start,
            "fsck": _add_fsck,
            "workers": _add_workers,
            "gc": _add_gc,
            "submit": _add_submit,
            "status": _add_status,
            "result": _add_result,
        },
    ),
    "worker": (
        "remote shard workers for a --remote sweep service",
        "worker_command",
        {"start": _add_worker_start},
    ),
}


def add_command(sub, name: str, leaf: Optional[str] = None) -> None:
    """Add group ``name`` (``service`` or ``worker``): every subcommand,
    or only ``leaf`` when it names one."""
    help_text, dest, leaves = _GROUPS[name]
    group = sub.add_parser(name, help=help_text)
    group_sub = group.add_subparsers(dest=dest, required=True)
    for add_leaf in [leaves[leaf]] if leaf in leaves else leaves.values():
        add_leaf(group_sub)
