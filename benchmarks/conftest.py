"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper (see
the experiment index in DESIGN.md).  Repeats are reduced relative to
the paper to keep the suite's wall-clock reasonable; EXPERIMENTS.md
records full-scale numbers.  Run with ``pytest benchmarks/``; add
``-s`` to see the regenerated tables inline.  Timing is not measured
here: ``scripts/perf_record.py`` is the one performance harness.
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: Repeats per experiment cell in benchmark runs (paper-scale is 30+).
BENCH_REPEATS = 20

#: Seeds used by setup-level benchmarks.
BENCH_SEEDS = (0, 1, 2)

#: Regenerated tables/series are also appended here, so the artefacts
#: survive pytest's output capture (fresh tables per session).
ARTIFACTS_PATH = Path(__file__).resolve().parent.parent / "benchmark_artifacts.txt"

#: The bar above and below each artefact's title.
BAR = "=" * 64


@pytest.fixture(scope="session", autouse=True)
def _fresh_artifacts_file():
    ARTIFACTS_PATH.write_text("")
    yield


def emit(title: str, body: str) -> None:
    """Print a regenerated artefact and persist it to the artefact file."""
    text = f"\n{BAR}\n{title}\n{BAR}\n{body}\n"
    print(text)
    with ARTIFACTS_PATH.open("a") as handle:
        handle.write(text)


@pytest.fixture(scope="session")
def figure5_panel_a():
    """Figure 5a series (SD = 3), shared across benchmark assertions."""
    from repro.experiments import run_figure5

    return run_figure5(search_distance=3, repeats=BENCH_REPEATS, noise="casino")


@pytest.fixture(scope="session")
def figure5_panel_b():
    """Figure 5b series (SD = 5), shared across benchmark assertions."""
    from repro.experiments import run_figure5

    return run_figure5(search_distance=5, repeats=BENCH_REPEATS, noise="casino")
