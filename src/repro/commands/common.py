"""What the subcommands share: status output, runner options, exit
codes, the flag tables and the collector hooks of the process entry
point."""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import nullcontext
from pathlib import Path

from ..errors import EXIT_QUARANTINED

#: Whether the process entry point holds the cyclic collector off until
#: the running subcommand has done its imports (DESIGN.md "Collector
#: policy").
_gc_held = False


def hold_gc() -> None:
    """Turn the cyclic collector off until :func:`imports_done`."""
    global _gc_held
    gc.disable()
    _gc_held = True


def imports_done() -> None:
    """After :func:`hold_gc`, freeze what the imports built and turn the
    collector back on.  A handler declaring ``imports_first`` calls it
    before its sweep; :func:`repro.cli.main` before any other handler."""
    global _gc_held
    if _gc_held:
        _gc_held = False
        gc.freeze()
        gc.enable()


def runner_options(args: argparse.Namespace) -> dict:
    """Runner keyword arguments selected by the shared sweep flags.

    Maps whichever of them the subcommand declares — ``--workers``,
    ``--legacy-kernel``, ``--legacy-setup-kernel``,
    ``--no-schedule-cache`` and the resilience flags — onto the keyword
    names of :class:`ScenarioRunner` (``figure5`` and ``scenario
    run|compare``, through it the service's job payload) and of
    :func:`measure_setup_overhead` (``overhead``, which takes only
    ``workers`` and ``setup_kernel``).  ``--no-schedule-cache`` also
    switches this process's schedule cache off.
    """
    options = {}
    if "legacy_kernel" in args:
        options["kernel"] = "legacy" if args.legacy_kernel else None
    if "legacy_setup_kernel" in args:
        options["setup_kernel"] = "legacy" if args.legacy_setup_kernel else None
    if "no_schedule_cache" in args:
        options["use_schedule_cache"] = not args.no_schedule_cache
        if args.no_schedule_cache:
            from ..experiments.schedule_cache import configure_schedule_cache

            configure_schedule_cache(enabled=False)
    for name in (
        "workers",
        "checkpoint",
        "resume",
        "guard",
        "chunk_timeout",
    ):
        if name in args:
            options[name] = getattr(args, name)
    return options


def status(args: argparse.Namespace, message: str) -> None:
    """A status line on stderr, suppressed by ``--quiet``.

    Every informational print of the CLI goes through here so the
    stream stays machine-consumable: stdout carries only the report,
    stderr only status — and ``--quiet`` silences the latter wholesale
    (warnings about quarantined seeds stay visible regardless).
    """
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def print_cache_summary(args: argparse.Namespace) -> None:
    """One line of schedule-cache stats (this process's cache), so a
    perf regression can be bisected to the cache layer at a glance."""
    from ..experiments.schedule_cache import default_schedule_cache

    status(args, default_schedule_cache().summary())


def telemetry_session(args: argparse.Namespace, label: str):
    """The command's telemetry context: a :class:`TelemetrySession`
    exporting to ``--telemetry DIR``, or a no-op context without the
    flag (the zero-cost disabled path — output bytes are identical)."""
    directory = getattr(args, "telemetry", None)
    if directory is None:
        return nullcontext(None)
    from ..telemetry import TelemetrySession

    return TelemetrySession(directory=directory, label=label)


def report_telemetry(args: argparse.Namespace) -> None:
    """Tell the user where the telemetry artefacts landed."""
    directory = getattr(args, "telemetry", None)
    if directory is not None:
        status(
            args,
            f"telemetry written to {directory} "
            "(spans.jsonl, trace.json, metrics.json)",
        )


def quarantine_exit(failures, degraded: bool = False) -> int:
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


def write_out(args: argparse.Namespace, payload: str) -> None:
    """Write a report to ``--out`` (durably) or to stdout."""
    if args.out is not None:
        from ..storage import atomic_write_text

        atomic_write_text(args.out, payload)
        status(args, f"wrote {args.out}")
    else:
        sys.stdout.write(payload)


def resolve_scenario(name: str):
    """A ``scenario run`` target: a registry name, or a path to a JSON
    spec document (recognised by a ``.json`` suffix or an existing
    file — ``scenario run specs/ablation.json`` just works)."""
    if name.endswith(".json") or Path(name).is_file():
        from ..scenarios import load_scenario_file

        return load_scenario_file(name)
    return name


# ----------------------------------------------------------------------
# Shared flag tables
# ----------------------------------------------------------------------
# Each table is a function adding its flags to one subcommand's parser,
# so every subcommand owns fresh actions and may override a shared
# default with ``set_defaults``.


def quiet_flags(flags: argparse.ArgumentParser) -> None:
    flags.add_argument(
        "--quiet",
        action="store_true",
        help="suppress status lines and live progress on stderr "
        "(quarantine warnings stay visible)",
    )


def observability_flags(flags: argparse.ArgumentParser) -> None:
    quiet_flags(flags)
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


def seed_flags(flags: argparse.ArgumentParser) -> None:
    flags.add_argument(
        "--seed", type=int, default=None, help="the (first) seed"
    )


def seeds_flags(flags: argparse.ArgumentParser) -> None:
    flags.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="how many seeds to run (scenarios default to their repeats)",
    )


def workers_flags(flags: argparse.ArgumentParser) -> None:
    from ..experiments.options import workers_argument

    flags.add_argument(
        "--workers",
        type=workers_argument,
        default=None,
        help="worker processes for seed sweeps "
        "(default: serial; 0 = one per CPU)",
    )


def setup_kernel_flags(flags: argparse.ArgumentParser) -> None:
    flags.add_argument(
        "--legacy-setup-kernel",
        action="store_true",
        help="build distributed-setup schedules on the legacy event-heap "
        "engine instead of the flat-round setup kernel "
        "(bit-identical; for bisection)",
    )


def kernel_flags(flags: argparse.ArgumentParser) -> None:
    setup_kernel_flags(flags)
    flags.add_argument(
        "--legacy-kernel",
        action="store_true",
        help="run the operational phase on the legacy event-heap "
        "kernel instead of the fast kernel (bit-identical; for bisection)",
    )


def sweep_flags(flags: argparse.ArgumentParser) -> None:
    """What every seed sweep shares: figure5 and scenario run/compare."""
    from ..experiments.options import GUARD_MODES

    seed_flags(flags)
    workers_flags(flags)
    kernel_flags(flags)
    observability_flags(flags)
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
        help="the pooled sweep's lease timeout: seconds a worker may hold "
        "a shard without landing a seed before it is presumed hung, "
        "killed, charged an attempt and replaced",
    )


def subcommand(sub, name: str, flags=(), **kwargs) -> argparse.ArgumentParser:
    """Add subcommand ``name`` to ``sub`` with the shared flag tables
    ``flags``, in order, ahead of its own arguments."""
    parser = sub.add_parser(name, **kwargs)
    for add_flags in flags:
        add_flags(parser)
    return parser
