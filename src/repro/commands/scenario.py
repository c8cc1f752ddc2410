"""``scenario list|export|run|compare``: the declarative workloads."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from .common import (
    imports_done,
    print_cache_summary,
    quarantine_exit,
    report_telemetry,
    resolve_scenario,
    runner_options,
    seeds_flags,
    subcommand,
    sweep_flags,
    telemetry_session,
    write_out,
)


def _cmd_scenario_export(args: argparse.Namespace) -> int:
    from ..scenarios import get_scenario

    write_out(args, get_scenario(args.name).to_json() + "\n")
    return 0


def _cmd_scenario_list(_: argparse.Namespace) -> int:
    from ..scenarios import iter_scenarios, scenario_names

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
    from ..scenarios import ScenarioRunner

    options = runner_options(args)
    if args.schedule_store is not None:
        from ..experiments.schedule_cache import configure_schedule_cache

        configure_schedule_cache(store=args.schedule_store)
    return ScenarioRunner(progress=not args.quiet, **options)


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    runner = _make_scenario_runner(args)
    scenario = resolve_scenario(args.name)
    imports_done()
    with telemetry_session(args, "cli.scenario-run"):
        outcome = runner.run(scenario, seeds=args.seeds, base_seed=args.seed)
    write_out(args, outcome.to_jsonl() if args.jsonl else outcome.to_json() + "\n")
    print_cache_summary(args)
    report_telemetry(args)
    return quarantine_exit(
        outcome.failures,
        degraded=outcome.guard is not None and outcome.guard.degraded,
    )


def _cmd_scenario_compare(args: argparse.Namespace) -> int:
    from ..scenarios import format_comparison, scenario_names

    names = args.names if args.names else scenario_names()
    runner = _make_scenario_runner(args)
    imports_done()
    with telemetry_session(args, "cli.scenario-compare"):
        outcomes = runner.compare(names, seeds=args.seeds, base_seed=args.seed)
    print(format_comparison(outcomes))
    print_cache_summary(args)
    report_telemetry(args)
    return quarantine_exit(
        [f for outcome in outcomes for f in outcome.failures],
        degraded=any(
            o.guard is not None and o.guard.degraded for o in outcomes
        ),
    )


def _scenario_sweep_flags(flags: argparse.ArgumentParser) -> None:
    """The sweep flags plus what only scenario sweeps take."""
    sweep_flags(flags)
    seeds_flags(flags)
    flags.add_argument(
        "--schedule-store",
        type=Path,
        default=None,
        metavar="PATH",
        help="attach a shared on-disk schedule store (SQLite) so "
        "concurrent runs over one topology dedup schedule builds",
    )


def _add_list(sub) -> None:
    scn_list = sub.add_parser("list", help="list registered scenarios")
    scn_list.set_defaults(func=_cmd_scenario_list)


def _add_export(sub) -> None:
    scn_export = sub.add_parser(
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


def _add_run(sub) -> None:
    scn_run = subcommand(
        sub,
        "run",
        help="sweep one scenario and print a JSON report",
        flags=(_scenario_sweep_flags,),
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
    scn_run.set_defaults(func=_cmd_scenario_run, imports_first=True)


def _add_compare(sub) -> None:
    scn_cmp = subcommand(
        sub,
        "compare",
        help="sweep several scenarios and tabulate capture ratios",
        flags=(_scenario_sweep_flags,),
    )
    scn_cmp.add_argument(
        "names", nargs="*", help="scenario names (default: every registered one)"
    )
    scn_cmp.set_defaults(func=_cmd_scenario_compare, imports_first=True)


#: The ``scenario`` subcommands, in help order.
_LEAVES = {
    "list": _add_list,
    "export": _add_export,
    "run": _add_run,
    "compare": _add_compare,
}


def add_command(sub, name: str, leaf: Optional[str] = None) -> None:
    """Add the ``scenario`` group: every subcommand, or only ``leaf``
    when it names one."""
    scenario = sub.add_parser(
        name, help="declarative workloads (multi-source, mobile, churn)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    for add_leaf in [_LEAVES[leaf]] if leaf in _LEAVES else _LEAVES.values():
        add_leaf(scenario_sub)
