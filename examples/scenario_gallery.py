#!/usr/bin/env python
"""A tour of the declarative scenario subsystem, via its CLI.

PR 1 gave the reproduction a parallel sweep engine; the scenario
subsystem gives it workloads beyond the paper's single static source:
multiple simultaneous sources, a mobile source rotating through the
grid corners, node churn and duty-cycled regions, and the promoted
attacker spectrum of ``attacker_gallery.py`` — all as named, frozen
:class:`~repro.scenarios.ScenarioSpec` entries swept through the same
``ExperimentRunner``, serially or on its worker pool, with
bit-identical serial/parallel results.

This example drives everything through the ``repro-slp-das scenario``
CLI, exactly as a shell user would:

* ``scenario list`` — the registry;
* ``scenario run two-sources`` — a JSON report with per-source capture
  ratios and first-capture aggregation;
* ``scenario compare`` — capture ratios across workloads, side by side.

Run: ``python examples/scenario_gallery.py``
"""

import json
import io
from contextlib import redirect_stdout

from repro.cli import main as cli_main
from repro.scenarios import ScenarioRunner, get_scenario

SEEDS = 8


def run_cli(*argv: str) -> str:
    """Invoke the CLI in-process and return its stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(list(argv))
    assert code == 0, f"CLI exited {code} for {argv}"
    return buffer.getvalue()


def main() -> None:
    print("=== repro-slp-das scenario list ===\n")
    print(run_cli("scenario", "list"))

    print(f"=== scenario run two-sources --seeds {SEEDS} ===\n")
    report = json.loads(
        run_cli("scenario", "run", "two-sources", "--seeds", str(SEEDS))
    )
    stats = report["stats"]
    print(
        f"two sources at nodes {report['workload']['sources']}: "
        f"capture ratio {stats['capture_ratio']:.2f} "
        f"over {stats['runs']} seeds"
    )
    for entry in report["per_source"]:
        print(
            f"  source {entry['source']:>3}: "
            f"{entry['captures']}/{entry['runs']} captures "
            f"({entry['capture_ratio']:.2f})"
        )
    first = report["first_capture"]
    print(f"  first capture: mean period {first['mean_capture_period']}\n")

    print(f"=== scenario compare (selected) --seeds {SEEDS} ===\n")
    print(
        run_cli(
            "scenario",
            "compare",
            "paper-baseline",
            "paper-baseline-slp",
            "two-sources",
            "mobile-source",
            "churn-10pct",
            "strong-attacker",
            "--seeds",
            str(SEEDS),
        )
    )

    # The same sweeps are available as a library, one call deep.
    spec = get_scenario("mobile-source")
    outcome = ScenarioRunner().run(spec, seeds=SEEDS)
    print(
        f"\nlibrary API: {spec.name!r} ({spec.workload_kind()}) -> "
        f"capture ratio {outcome.stats.capture_ratio:.2f}, "
        f"captured sources "
        f"{sorted({r.captured_source for r in outcome.results if r.captured})}"
    )
    print("\nReading: a second source, a moving asset, or a stronger")
    print("attacker all raise the capture ratio against the same grids;")
    print("the SLP refinement keeps protecting the primary source.")


if __name__ == "__main__":
    main()
