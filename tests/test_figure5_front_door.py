"""Figure 5 has one front door: each cell is two scenario specs.

A panel's cells are the registered ``paper-baseline`` and
``paper-baseline-slp`` specs moved to each grid size
(:func:`figure5_cell_specs`), swept by ``ScenarioRunner``.  So:

* ``figure5 --checkpoint D`` fills the store ``scenario run
  paper-baseline --checkpoint D --resume`` reads;
* the service, given a panel's specs, computes the CLI's panel;
* a grid size the paper does not evaluate is a usage error.
"""

from __future__ import annotations

import json
import time

from repro.cli import main
from repro.experiments import (
    ExperimentRunner,
    Figure5Cell,
    Figure5Result,
    figure5_cell_specs,
    format_figure5,
)
from repro.metrics import CaptureStats
from repro.service import DONE, SweepService


def test_non_paper_size_is_a_usage_error(capsys):
    assert main(["figure5", "--sizes", "11", "7", "--repeats", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: run_figure5.sizes=[7]")
    assert "(11, 15, 21)" in captured.err


def test_figure5_checkpoint_is_the_scenario_store(tmp_path, capsys, monkeypatch):
    """A figure5 cell and ``scenario run`` share one sweep key: the
    scenario resumes every seed from the figure's store, writes no new
    sweep file and prints the bytes of an uncheckpointed run."""
    store = tmp_path / "ckpt"
    seeds = "4"
    figure = ["figure5", "--sizes", "11", "--repeats", seeds, "--quiet"]
    assert main(figure + ["--checkpoint", str(store)]) == 0
    capsys.readouterr()
    files = sorted(store.glob("sweep-*.jsonl"))
    assert len(files) == 2
    for name in ("paper-baseline", "paper-baseline-slp"):
        scenario = ["scenario", "run", name, "--seeds", seeds, "--quiet"]
        assert main(scenario) == 0
        plain = capsys.readouterr().out
        with monkeypatch.context() as patch:

            def no_rerun(self, config, seed):
                raise AssertionError(f"{name} seed {seed} was not resumed")

            patch.setattr(ExperimentRunner, "run_once", no_rerun)
            assert main(scenario + ["--checkpoint", str(store), "--resume"]) == 0
        assert capsys.readouterr().out == plain
    assert sorted(store.glob("sweep-*.jsonl")) == files


def test_service_runs_a_panel_as_specs(tmp_path, capsys):
    """A 2-size panel submitted to the service as its four specs gives
    the CLI's capture statistics, and so the CLI's panel bytes."""
    sizes, repeats = (11, 15), 3
    assert main(
        ["figure5", "--sizes", *map(str, sizes), "--repeats", str(repeats), "--quiet"]
    ) == 0
    cli_bytes = capsys.readouterr().out
    service = SweepService(tmp_path / "svc", port=0, shard_workers=2).start()
    try:
        jobs = [
            service.submit({"spec": spec.to_dict()})[0].job_id
            for size in sizes
            for spec in figure5_cell_specs(size, repeats=repeats)
        ]
        deadline = time.monotonic() + 120.0
        while any(service.store.get(job).state != DONE for job in jobs):
            assert time.monotonic() < deadline, "panel jobs did not finish"
            time.sleep(0.02)
    finally:
        service.drain()
    stats = [
        CaptureStats(**json.loads(service.store.get(job).result_json)["stats"])
        for job in jobs
    ]
    panel = Figure5Result(
        search_distance=3,
        repeats=repeats,
        cells=tuple(
            Figure5Cell(size=size, protectionless=base, slp=slp)
            for size, base, slp in zip(sizes, stats[::2], stats[1::2])
        ),
    )
    assert format_figure5(panel) + "\n" == cli_bytes
