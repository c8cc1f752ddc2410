"""Command-line interface: regenerate the paper's tables and figures.

Usage (installed as ``repro-slp-das`` or via ``python -m repro.cli``)::

    repro-slp-das table1
    repro-slp-das figure5 --search-distance 3 --repeats 30
    repro-slp-das overhead --size 11 --seeds 3
    repro-slp-das verify --size 11 --seed 0 --search-distance 3
    repro-slp-das show --size 11 --seed 0
    repro-slp-das scenario list
    repro-slp-das scenario run two-sources --seeds 20 --workers 2
    repro-slp-das scenario compare paper-baseline mobile-source

Every subcommand prints the same rows/series the paper reports, so the
EXPERIMENTS.md numbers can be re-derived from a shell; the ``scenario``
family sweeps the declarative workloads of :mod:`repro.scenarios`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional

from .errors import ConfigurationError, StorageError, SweepExecutionError


#: Exit code when a sweep could not produce any results at all
#: (:class:`~repro.errors.SweepExecutionError`).
EXIT_SWEEP_FAILED = 3
#: Exit code when a sweep completed but supervised execution had to
#: quarantine seeds — the report is usable but incomplete.
EXIT_QUARANTINED = 4
#: Exit code when the *disk* failed us — a durable write raised
#: :class:`~repro.errors.StorageError` (ENOSPC, EROFS, …).  Distinct
#: from the sweep-level codes so scripts can tell "the numbers are
#: suspect" apart from "the machine needs an operator".
EXIT_STORAGE = 5


def _cmd_table1(_: argparse.Namespace) -> int:
    from .experiments.config import format_table1

    print(format_table1())
    return 0


def _runner_options(args: argparse.Namespace) -> dict:
    """Runner keyword arguments selected by the shared sweep flags.

    Maps whichever of them the subcommand declares — ``--workers``,
    ``--legacy-kernel``, ``--legacy-setup-kernel``,
    ``--no-schedule-cache``, ``--force-parallel`` and the resilience
    flags — onto the keyword names :func:`run_figure5`,
    :func:`measure_setup_overhead`, :class:`ScenarioRunner` and the
    service's job payload share.  ``--no-schedule-cache`` also switches
    this process's schedule cache off.
    """
    options = {}
    if "legacy_kernel" in args:
        options["kernel"] = "legacy" if args.legacy_kernel else None
    if "legacy_setup_kernel" in args:
        options["setup_kernel"] = "legacy" if args.legacy_setup_kernel else None
    if "no_schedule_cache" in args:
        options["use_schedule_cache"] = not args.no_schedule_cache
        if args.no_schedule_cache:
            from .experiments.schedule_cache import configure_schedule_cache

            configure_schedule_cache(enabled=False)
    for name in (
        "workers",
        "force_parallel",
        "checkpoint",
        "resume",
        "guard",
        "chunk_timeout",
    ):
        if name in args:
            options[name] = getattr(args, name)
    return options


def _status(args: argparse.Namespace, message: str) -> None:
    """A status line on stderr, suppressed by ``--quiet``.

    Every informational print of the CLI goes through here so the
    stream stays machine-consumable: stdout carries only the report,
    stderr only status — and ``--quiet`` silences the latter wholesale
    (warnings about quarantined seeds stay visible regardless).
    """
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _print_cache_summary(args: argparse.Namespace) -> None:
    """One line of schedule-cache stats (this process's cache), so a
    perf regression can be bisected to the cache layer at a glance."""
    from .experiments.schedule_cache import default_schedule_cache

    _status(args, default_schedule_cache().summary())


def _telemetry_session(args: argparse.Namespace, label: str):
    """The command's telemetry context: a :class:`TelemetrySession`
    exporting to ``--telemetry DIR``, or a no-op context without the
    flag (the zero-cost disabled path — output bytes are identical)."""
    directory = getattr(args, "telemetry", None)
    if directory is None:
        return nullcontext(None)
    from .telemetry import TelemetrySession

    return TelemetrySession(directory=directory, label=label)


def _report_telemetry(args: argparse.Namespace) -> None:
    """Tell the user where the telemetry artefacts landed."""
    directory = getattr(args, "telemetry", None)
    if directory is not None:
        _status(
            args,
            f"telemetry written to {directory} "
            "(spans.jsonl, trace.json, metrics.json)",
        )


def _progress_reporter(args: argparse.Namespace, total: int, label: str):
    """A live progress reporter for ``total`` runs, or ``None`` under
    ``--quiet`` (the reporter itself stays silent on non-TTY stderr)."""
    if getattr(args, "quiet", False):
        return None
    from .telemetry import ProgressReporter

    return ProgressReporter(total=total, label=label)


def _quarantine_exit(failures, degraded: bool = False) -> int:
    """The exit code after a sweep that completed with failures.

    Quarantined seeds mean the printed numbers rest on fewer runs than
    requested, so the command still exits non-zero (distinct from the
    total-failure code) for scripts to notice.
    """
    if failures:
        seeds = sorted({f.seed for f in failures})
        print(
            f"warning: {len(seeds)} seed(s) quarantined after retries: "
            f"{seeds}",
            file=sys.stderr,
        )
        return EXIT_QUARANTINED
    if degraded:
        print(
            "warning: kernel divergence detected — results recomputed on "
            "the legacy engines (see the reproducer bundle)",
            file=sys.stderr,
        )
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from .experiments.figure5 import format_figure5, run_figure5

    options = _runner_options(args)
    with _telemetry_session(args, "cli.figure5"):
        # Each size runs both algorithms over the same repeats.
        reporter = _progress_reporter(
            args, total=len(args.sizes) * 2 * args.repeats, label="figure5: "
        )
        try:
            result = run_figure5(
                args.search_distance,
                sizes=tuple(args.sizes),
                repeats=args.repeats,
                base_seed=args.seed,
                noise=args.noise,
                use_distributed=args.distributed,
                on_result=reporter.on_result if reporter is not None else None,
                **options,
            )
        finally:
            if reporter is not None:
                reporter.finish()
    print(format_figure5(result))
    _print_cache_summary(args)
    _report_telemetry(args)
    return _quarantine_exit(
        [f for cell in result.cells for f in cell.failures],
        degraded=any(cell.degraded for cell in result.cells),
    )


def _cmd_overhead(args: argparse.Namespace) -> int:
    from .experiments.overhead import format_overhead, measure_setup_overhead
    from .topology import paper_grid

    topology = paper_grid(args.size)
    with _telemetry_session(args, "cli.overhead"):
        measurement = measure_setup_overhead(
            topology,
            seeds=range(args.seeds),
            search_distance=args.search_distance,
            setup_periods=args.setup_periods,
            **_runner_options(args),
        )
    print(format_overhead(measurement))
    _report_telemetry(args)
    return _quarantine_exit(measurement.failures)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .core import safety_period
    from .das import centralized_das_schedule
    from .experiments.config import PAPER
    from .slp import SlpParameters, build_slp_schedule
    from .topology import paper_grid
    from .verification import verify_schedule

    topology = paper_grid(args.size)
    frame = PAPER.frame()
    delta = safety_period(topology, frame.period_length).periods
    baseline = centralized_das_schedule(topology, seed=args.seed)
    build = build_slp_schedule(
        topology,
        SlpParameters(search_distance=args.search_distance),
        seed=args.seed,
        baseline=baseline,
    )
    print(f"safety period: {delta} periods")
    for name, schedule in (("protectionless", baseline), ("slp", build.schedule)):
        result = verify_schedule(topology, schedule, delta)
        if result.slp_aware:
            print(f"{name}: SLP-aware (True, ⊥, {result.periods})")
        else:
            print(
                f"{name}: captured in {result.periods} periods "
                f"(False, pc, {result.periods})"
            )
            print(f"  counterexample: {' -> '.join(map(str, result.counterexample))}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from .core import check_strong_das, check_weak_das
    from .das import centralized_das_schedule
    from .slp import SlpParameters, build_slp_schedule
    from .topology import paper_grid
    from .visualize import render_roles, render_slot_grid

    topology = paper_grid(args.size)
    baseline = centralized_das_schedule(topology, seed=args.seed)
    build = build_slp_schedule(
        topology,
        SlpParameters(search_distance=args.search_distance),
        seed=args.seed,
        baseline=baseline,
    )
    strong = check_strong_das(topology, baseline)
    weak = check_weak_das(topology, build.schedule)
    print(f"baseline: {strong.summary()}")
    print(f"refined:  {weak.summary()}")
    print()
    print("refined slot landscape (decoy path in [ ]):")
    print(
        render_slot_grid(
            topology,
            build.schedule.compressed(),
            highlight=build.refinement.decoy_path,
        )
    )
    print()
    print(
        render_roles(
            topology,
            decoy_path=build.refinement.decoy_path,
            search_path=build.search.path,
        )
    )
    return 0


def _write_out(args: argparse.Namespace, payload: str) -> None:
    """Write a report to ``--out`` (durably) or to stdout."""
    if args.out is not None:
        from .storage import atomic_write_text

        atomic_write_text(args.out, payload)
        _status(args, f"wrote {args.out}")
    else:
        sys.stdout.write(payload)


def _cmd_scenario_export(args: argparse.Namespace) -> int:
    from .scenarios import get_scenario

    _write_out(args, get_scenario(args.name).to_json() + "\n")
    return 0


def _cmd_scenario_list(_: argparse.Namespace) -> int:
    from .scenarios import iter_scenarios, scenario_names

    header = f"{'name':<22} {'summary'}"
    print(header)
    print("-" * 72)
    for spec in iter_scenarios():
        print(f"{spec.name:<22} {spec.summary()}")
        if spec.description:
            print(f"{'':<22} {spec.description}")
    print(f"\n{len(scenario_names())} scenarios registered")
    return 0


def _make_scenario_runner(args: argparse.Namespace):
    from .scenarios import ScenarioRunner

    options = _runner_options(args)
    if args.schedule_store is not None:
        from .experiments.schedule_cache import configure_schedule_cache

        configure_schedule_cache(store=args.schedule_store)
    return ScenarioRunner(progress=not args.quiet, **options)


def _resolve_scenario(name: str):
    """A ``scenario run`` target: a registry name, or a path to a JSON
    spec document (recognised by a ``.json`` suffix or an existing
    file — ``scenario run specs/ablation.json`` just works)."""
    if name.endswith(".json") or Path(name).is_file():
        from .scenarios import load_scenario_file

        return load_scenario_file(name)
    return name


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    runner = _make_scenario_runner(args)
    with _telemetry_session(args, "cli.scenario-run"):
        outcome = runner.run(
            _resolve_scenario(args.name), seeds=args.seeds, base_seed=args.seed
        )
    _write_out(args, outcome.to_jsonl() if args.jsonl else outcome.to_json() + "\n")
    _print_cache_summary(args)
    _report_telemetry(args)
    return _quarantine_exit(
        outcome.failures,
        degraded=outcome.guard is not None and outcome.guard.degraded,
    )


def _cmd_scenario_compare(args: argparse.Namespace) -> int:
    from .scenarios import format_comparison, scenario_names

    names = args.names if args.names else scenario_names()
    runner = _make_scenario_runner(args)
    with _telemetry_session(args, "cli.scenario-compare"):
        outcomes = runner.compare(names, seeds=args.seeds, base_seed=args.seed)
    print(format_comparison(outcomes))
    _print_cache_summary(args)
    _report_telemetry(args)
    return _quarantine_exit(
        [f for outcome in outcomes for f in outcome.failures],
        degraded=any(
            o.guard is not None and o.guard.degraded for o in outcomes
        ),
    )


DEFAULT_SERVICE_URL = "http://127.0.0.1:8642"


def _cmd_service_start(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .experiments import RetryPolicy
    from .service import SweepService

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
    _status(args, f"sweep service listening on {service.url}")
    _status(args, f"data dir: {Path(args.data_dir).resolve()}")
    if args.remote:
        _status(
            args,
            "remote mode: shards run on 'repro-slp-das worker start "
            f"--connect {service.url}' workers",
        )
    while not stop_requested.is_set() and not service.stopping:
        stop_requested.wait(0.2)
    _status(args, "draining: stopping shards, re-queueing running jobs")
    service.drain()
    return 0


def _cmd_service_gc(args: argparse.Namespace) -> int:
    from .experiments import SweepCheckpoint
    from .service import JobStore, lower_job

    store_path = Path(args.data_dir) / "jobs.sqlite"
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
    _status(
        args,
        f"evicted {len(evicted)} result blob(s), pruned {pruned} "
        f"checkpoint file(s); kept the {args.keep} most recent",
    )
    for record in evicted:
        print(record.job_id)
    return 0


def _cmd_worker_start(args: argparse.Namespace) -> int:
    from .experiments import RetryPolicy
    from .service import ShardWorker, worker_main

    retry = (
        RetryPolicy(max_attempts=args.max_attempts)
        if args.max_attempts is not None
        else None
    )
    worker = ShardWorker(
        args.connect,
        worker_id=args.id,
        poll_interval=args.poll,
        timeout=args.timeout,
        retry=retry,
        idle_exit=args.idle_exit,
        token=args.token,
        upload_batch=args.upload_batch,
    )
    _status(args, f"worker {worker.worker_id} pulling from {args.connect}")
    executed = worker_main(worker)
    _status(args, f"worker {worker.worker_id} exiting ({executed} seeds run)")
    return 0


def _service_client(args: argparse.Namespace):
    from .service import ServiceClient

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
    from .service import ServiceError

    scenario = _resolve_scenario(args.name)
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
        for name, value in _runner_options(args).items()
        if value is not None
    )
    client = _service_client(args)
    try:
        reply = client.submit(payload)
        job = reply["job"]
        _status(
            args,
            f"job {job} {'created' if reply['created'] else 'deduplicated'} "
            f"({reply['state']})",
        )
        if not args.wait:
            print(job)
            return 0
        final = client.wait(job, timeout=args.timeout)
        _status(args, f"job {job} finished: {final['state']}")
        if final["state"] in ("done", "quarantined"):
            sys.stdout.write(client.result_text(job))
        return _finished_exit(final["state"])
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_service_status(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ServiceError

    client = _service_client(args)
    try:
        status = client.status(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_service_result(args: argparse.Namespace) -> int:
    from .service import ServiceError

    client = _service_client(args)
    try:
        text = client.result_text(args.job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_out(args, text)
    state = client.status(args.job)["state"]
    return _finished_exit(state)


def _cmd_service_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from .service import fsck_data_dir

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
    from .service import ServiceError

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


# ----------------------------------------------------------------------
# Shared flag tables
# ----------------------------------------------------------------------
# Each factory returns a fresh parent parser, so a subcommand may
# override a shared default with ``set_defaults`` (argparse shares the
# parent's action objects with every child built from that instance).


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An empty parent parser composing ``parents``."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _quiet_flags() -> argparse.ArgumentParser:
    flags = _flags()
    flags.add_argument(
        "--quiet",
        action="store_true",
        help="suppress status lines and live progress on stderr "
        "(quarantine warnings stay visible)",
    )
    return flags


def _observability_flags() -> argparse.ArgumentParser:
    flags = _flags(_quiet_flags())
    flags.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="DIR",
        help="record spans and metrics for this run and write "
        "spans.jsonl, trace.json (Chrome trace-event format, loads "
        "in Perfetto) and metrics.json under DIR; off by default "
        "and output bytes are identical either way",
    )
    return flags


def _seed_flags() -> argparse.ArgumentParser:
    flags = _flags()
    flags.add_argument(
        "--seed", type=int, default=None, help="the (first) seed"
    )
    return flags


def _seeds_flags() -> argparse.ArgumentParser:
    flags = _flags()
    flags.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="how many seeds to run (scenarios default to their repeats)",
    )
    return flags


def _workers_flags() -> argparse.ArgumentParser:
    from .experiments.options import workers_argument

    flags = _flags()
    flags.add_argument(
        "--workers",
        type=workers_argument,
        default=None,
        help="worker processes for seed sweeps "
        "(default: serial; 0 = one per CPU)",
    )
    return flags


def _setup_kernel_flags() -> argparse.ArgumentParser:
    flags = _flags()
    flags.add_argument(
        "--legacy-setup-kernel",
        action="store_true",
        help="build distributed-setup schedules on the legacy event-heap "
        "engine instead of the flat-round setup kernel "
        "(bit-identical; for bisection)",
    )
    return flags


def _kernel_flags() -> argparse.ArgumentParser:
    flags = _flags(_setup_kernel_flags())
    flags.add_argument(
        "--legacy-kernel",
        action="store_true",
        help="run the operational phase on the legacy event-heap "
        "kernel instead of the fast kernel (bit-identical; for bisection)",
    )
    return flags


def _sweep_flags() -> argparse.ArgumentParser:
    """What every seed sweep shares: figure5 and scenario run/compare."""
    from .experiments.options import GUARD_MODES

    flags = _flags(
        _seed_flags(), _workers_flags(), _kernel_flags(), _observability_flags()
    )
    flags.add_argument(
        "--no-schedule-cache",
        action="store_true",
        help="disable the content-addressed schedule cache "
        "(bit-identical; for bisection)",
    )
    flags.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist completed per-seed results under DIR so an "
        "interrupted sweep can be resumed",
    )
    flags.add_argument(
        "--resume",
        action="store_true",
        help="reuse results already in the --checkpoint store instead "
        "of clearing it (bit-identical to an uninterrupted sweep)",
    )
    flags.add_argument(
        "--guard",
        choices=sorted(GUARD_MODES),
        default=None,
        help="re-run a sample of each sweep on the legacy engines; on "
        "divergence, write a reproducer bundle and degrade the sweep "
        "to legacy",
    )
    flags.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds one parallel chunk may run before its worker is "
        "presumed hung and the pool is rebuilt",
    )
    return flags


def _scenario_sweep_flags() -> argparse.ArgumentParser:
    """The sweep flags plus what only scenario sweeps take."""
    flags = _flags(_sweep_flags(), _seeds_flags())
    flags.add_argument(
        "--force-parallel",
        action="store_true",
        help="honour --workers verbatim even where the worker policy "
        "would fall back to the serial engine",
    )
    flags.add_argument(
        "--schedule-store",
        type=Path,
        default=None,
        metavar="PATH",
        help="attach a shared on-disk schedule store (SQLite) so "
        "concurrent runs over one topology dedup schedule builds",
    )
    return flags


def _grid_flags() -> argparse.ArgumentParser:
    """One paper grid and its SLP search distance."""
    from .experiments.config import PAPER_SIZES

    flags = _flags()
    flags.add_argument("--size", type=int, default=11, choices=PAPER_SIZES)
    flags.add_argument("--search-distance", type=int, default=3)
    return flags


def _client_flags() -> argparse.ArgumentParser:
    """How a service client reaches the service."""
    flags = _flags()
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
    return flags


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from .experiments.config import PAPER_SIZES

    parser = argparse.ArgumentParser(
        prog="repro-slp-das",
        description=(
            "Reproduction of 'Source Location Privacy-Aware Data "
            "Aggregation Scheduling for WSNs' (ICDCS 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table I").set_defaults(func=_cmd_table1)

    fig = sub.add_parser(
        "figure5", help="regenerate a Figure 5 panel", parents=[_sweep_flags()]
    )
    fig.add_argument("--search-distance", type=int, default=3, choices=(3, 5))
    fig.add_argument("--repeats", type=int, default=30)
    fig.add_argument("--sizes", type=int, nargs="+", default=list(PAPER_SIZES))
    fig.add_argument("--noise", choices=("casino", "ideal"), default="casino")
    fig.add_argument(
        "--distributed",
        action="store_true",
        help="build schedules with the full message-level setup protocols "
        "instead of the centralised pipeline",
    )
    fig.set_defaults(func=_cmd_figure5, seed=0)

    over = sub.add_parser(
        "overhead",
        help="measure SLP setup overhead",
        parents=[
            _grid_flags(),
            _seeds_flags(),
            _workers_flags(),
            _setup_kernel_flags(),
            _observability_flags(),
        ],
    )
    over.add_argument("--setup-periods", type=int, default=None)
    over.set_defaults(func=_cmd_overhead, seeds=3)

    ver = sub.add_parser(
        "verify",
        help="run VerifySchedule (Algorithm 1)",
        parents=[_grid_flags(), _seed_flags()],
    )
    ver.set_defaults(func=_cmd_verify, seed=0)

    scenario = sub.add_parser(
        "scenario", help="declarative workloads (multi-source, mobile, churn)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scn_list = scenario_sub.add_parser("list", help="list registered scenarios")
    scn_list.set_defaults(func=_cmd_scenario_list)

    scn_export = scenario_sub.add_parser(
        "export",
        help="print a registered scenario as a JSON spec document "
        "(editable, runnable via 'scenario run FILE.json', submittable "
        "to the experiment service)",
    )
    scn_export.add_argument("name", help="registered scenario name")
    scn_export.add_argument(
        "--out", type=Path, default=None, help="write the document to a file"
    )
    scn_export.set_defaults(func=_cmd_scenario_export, quiet=False)

    scn_run = scenario_sub.add_parser(
        "run",
        help="sweep one scenario and print a JSON report",
        parents=[_scenario_sweep_flags()],
    )
    scn_run.add_argument(
        "name",
        help="registered scenario name (see 'list') or a path to a "
        "JSON spec document (see 'scenario export'/DESIGN.md)",
    )
    scn_run.add_argument(
        "--jsonl",
        action="store_true",
        help="emit one JSON line per run instead of one report object",
    )
    scn_run.add_argument(
        "--out", type=Path, default=None, help="write the report to a file"
    )
    scn_run.set_defaults(func=_cmd_scenario_run)

    scn_cmp = scenario_sub.add_parser(
        "compare",
        help="sweep several scenarios and tabulate capture ratios",
        parents=[_scenario_sweep_flags()],
    )
    scn_cmp.add_argument(
        "names", nargs="*", help="scenario names (default: every registered one)"
    )
    scn_cmp.set_defaults(func=_cmd_scenario_compare)

    service = sub.add_parser(
        "service",
        help="the resilient sweep service: durable jobs over HTTP "
        "(start/submit/status/result)",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    svc_start = service_sub.add_parser(
        "start",
        help="run the sweep service in the foreground",
        parents=[_quiet_flags()],
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
    svc_start.set_defaults(func=_cmd_service_start)

    svc_fsck = service_sub.add_parser(
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

    svc_workers = service_sub.add_parser(
        "workers",
        help="show the worker fleet (held shards, seeds landed, "
        "upload recency) from the service's lease board",
        parents=[_client_flags()],
    )
    svc_workers.set_defaults(func=_cmd_service_workers, quiet=False)

    svc_gc = service_sub.add_parser(
        "gc",
        help="evict old terminal jobs' result blobs (records stay for "
        "dedup); run offline against the service's --data-dir",
        parents=[_quiet_flags()],
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

    svc_submit = service_sub.add_parser(
        "submit",
        help="submit a scenario (name or spec JSON file) as a job",
        parents=[
            _client_flags(),
            _seeds_flags(),
            _seed_flags(),
            _kernel_flags(),
            _quiet_flags(),
        ],
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

    svc_status = service_sub.add_parser(
        "status", help="print one job's status document", parents=[_client_flags()]
    )
    svc_status.add_argument("job", help="job id (from 'submit')")
    svc_status.set_defaults(func=_cmd_service_status, quiet=False)

    svc_result = service_sub.add_parser(
        "result",
        help="print (or save) one finished job's report",
        parents=[_client_flags(), _quiet_flags()],
    )
    svc_result.add_argument("job", help="job id (from 'submit')")
    svc_result.add_argument(
        "--out", type=Path, default=None, help="write the report to a file"
    )
    svc_result.set_defaults(func=_cmd_service_result)

    worker = sub.add_parser(
        "worker",
        help="remote shard workers for a --remote sweep service",
    )
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)

    wrk_start = worker_sub.add_parser(
        "start",
        help="pull shard leases from a remote-mode service, run them, "
        "and upload results (SIGTERM drains gracefully)",
        parents=[_quiet_flags()],
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
    wrk_start.add_argument(
        "--upload-batch",
        type=int,
        default=1,
        metavar="N",
        help="coalesce up to N finished seeds into one upload (default "
        "1: upload each seed as it finishes; the batch flushes at shard "
        "end and on drain either way)",
    )
    wrk_start.set_defaults(func=_cmd_worker_start)

    show = sub.add_parser(
        "show",
        help="visualise a refined schedule",
        parents=[_grid_flags(), _seed_flags()],
    )
    show.set_defaults(func=_cmd_show, seed=0)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Exit codes: ``0`` success, ``EXIT_SWEEP_FAILED`` (3) when a sweep
    produced no results at all, ``EXIT_QUARANTINED`` (4) when it
    completed but had to quarantine failing seeds, ``EXIT_STORAGE``
    (5) when a durable write failed (disk full, read-only filesystem).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STORAGE
    except SweepExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SWEEP_FAILED


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
