"""The paper's artefacts: ``table1``, ``figure5``, ``overhead``,
``verify`` and ``show``."""

from __future__ import annotations

import argparse
from typing import Optional

from .common import (
    imports_done,
    observability_flags,
    print_cache_summary,
    quarantine_exit,
    report_telemetry,
    runner_options,
    seed_flags,
    seeds_flags,
    setup_kernel_flags,
    subcommand,
    sweep_flags,
    telemetry_session,
    workers_flags,
)


def _cmd_table1(_: argparse.Namespace) -> int:
    from ..experiments.table1 import format_table1

    print(format_table1())
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from ..experiments.figure5 import format_figure5, run_figure5

    options = runner_options(args)
    imports_done()
    with telemetry_session(args, "cli.figure5"):
        result = run_figure5(
            args.search_distance,
            sizes=tuple(args.sizes),
            repeats=args.repeats,
            base_seed=args.seed,
            noise=args.noise,
            distributed=args.distributed,
            progress=not args.quiet,
            **options,
        )
    print(format_figure5(result))
    print_cache_summary(args)
    report_telemetry(args)
    return quarantine_exit(
        [f for cell in result.cells for f in cell.failures],
        degraded=any(cell.degraded for cell in result.cells),
    )


def _cmd_overhead(args: argparse.Namespace) -> int:
    from ..experiments.overhead import format_overhead, measure_setup_overhead
    from ..topology import paper_grid

    topology = paper_grid(args.size)
    imports_done()
    with telemetry_session(args, "cli.overhead"):
        measurement = measure_setup_overhead(
            topology,
            seeds=range(args.seeds),
            search_distance=args.search_distance,
            setup_periods=args.setup_periods,
            **runner_options(args),
        )
    print(format_overhead(measurement))
    report_telemetry(args)
    return quarantine_exit(measurement.failures)


def _cmd_verify(args: argparse.Namespace) -> int:
    from ..core import safety_period
    from ..das import centralized_das_schedule
    from ..experiments.config import PAPER
    from ..slp import SlpParameters, build_slp_schedule
    from ..topology import paper_grid
    from ..verification import verify_schedule

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
    from ..core import check_strong_das, check_weak_das
    from ..das import centralized_das_schedule
    from ..slp import SlpParameters, build_slp_schedule
    from ..topology import paper_grid
    from ..visualize import render_roles, render_slot_grid

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


def _grid_flags(flags: argparse.ArgumentParser) -> None:
    """One paper grid and its SLP search distance."""
    from ..experiments.config import PAPER_SIZES

    flags.add_argument("--size", type=int, default=11, choices=PAPER_SIZES)
    flags.add_argument("--search-distance", type=int, default=3)


def add_command(sub, name: str, leaf: Optional[str] = None) -> None:
    """Add subcommand ``name`` (it has no subcommands of its own)."""
    if name == "table1":
        sub.add_parser("table1", help="print Table I").set_defaults(func=_cmd_table1)
    elif name == "figure5":
        from ..experiments.config import PAPER_SIZES

        fig = subcommand(
            sub, "figure5", help="regenerate a Figure 5 panel", flags=(sweep_flags,)
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
        fig.set_defaults(func=_cmd_figure5, seed=0, imports_first=True)
    elif name == "overhead":
        over = subcommand(
            sub,
            "overhead",
            help="measure SLP setup overhead",
            flags=(
                _grid_flags,
                seeds_flags,
                workers_flags,
                setup_kernel_flags,
                observability_flags,
            ),
        )
        over.add_argument("--setup-periods", type=int, default=None)
        over.set_defaults(func=_cmd_overhead, seeds=3, imports_first=True)
    elif name == "verify":
        ver = subcommand(
            sub,
            "verify",
            help="run VerifySchedule (Algorithm 1)",
            flags=(_grid_flags, seed_flags),
        )
        ver.set_defaults(func=_cmd_verify, seed=0)
    else:
        show = subcommand(
            sub,
            "show",
            help="visualise a refined schedule",
            flags=(_grid_flags, seed_flags),
        )
        show.set_defaults(func=_cmd_show, seed=0)
