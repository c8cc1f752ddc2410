"""The perfbench pair recorder's verdict rule, pair plan and output name
(``scripts/perf_record.py``), on synthetic values: no subprocess runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_record.py"


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("perf_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: A tight parent series (IQR well inside a 0.25 bound).
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def _verdict(recorder, parent, change, better="lower", bound=0.25):
    return recorder.verdict(parent, change, better, bound)["verdict"]


class TestVerdict:
    def test_improved(self, recorder):
        assert _verdict(recorder, PARENT, [v * 0.5 for v in PARENT]) == "improved"
        faster = [v * 1.5 for v in PARENT]
        assert _verdict(recorder, PARENT, faster, better="higher") == "improved"

    def test_worse(self, recorder):
        assert _verdict(recorder, PARENT, [v * 1.5 for v in PARENT]) == "worse"
        slower = [v * 0.5 for v in PARENT]
        assert _verdict(recorder, PARENT, slower, better="higher") == "worse"

    def test_within_bound(self, recorder):
        assert _verdict(recorder, PARENT, [v * 1.1 for v in PARENT]) == "within bound"
        assert _verdict(recorder, PARENT, [v * 0.9 for v in PARENT]) == "within bound"

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self, recorder):
        parent = [1.0, 2.0] * 5
        change = [2.0, 1.0] * 4 + [2.1, 2.1]
        assert _verdict(recorder, parent, change) == "unresolved"

    def test_nine_of_ten_pairs_is_the_boundary(self, recorder):
        parent = [1.0] * 10
        assert _verdict(recorder, parent, [0.5] * 9 + [1.5]) == "improved"
        assert _verdict(recorder, parent, [0.5] * 8 + [1.5] * 2) == "within bound"
        # Ties count for neither side.
        assert _verdict(recorder, parent, [0.5] * 8 + [1.0] * 2) == "within bound"

    def test_separated_runs_resolve_a_wide_spread(self, recorder):
        """Every change run better than every parent run is accepted
        despite the parent's spread; so is every one worse."""
        parent = [1.0] * 3 + [2.0] * 3
        assert _verdict(recorder, parent, [0.99] * 6) == "within bound"
        assert _verdict(recorder, parent, [2.01] * 6) == "worse"
        assert _verdict(recorder, parent, [0.99] * 5 + [1.0]) == "unresolved"

    def test_record_fields(self, recorder):
        record = recorder.verdict([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower", 0.25)
        assert record["parent"] == {
            "median": 2.0, "min": 1.0, "q1": 1.5, "q3": 2.5, "iqr": 1.0, "n": 3
        }
        assert record["median_delta"] == -0.5
        assert record["pairs_won"] == "1/3"


def test_failed_share(recorder):
    assert recorder.failed_more({"parent": 0, "change": 1}, {"parent": 10, "change": 10})
    assert not recorder.failed_more({"parent": 1, "change": 1}, {"parent": 10, "change": 10})
    assert not recorder.failed_more({"parent": 1, "change": 1}, {"parent": 10, "change": 20})
    assert not recorder.failed_more({"parent": 0, "change": 0}, {"parent": 10, "change": 10})


def test_src_lines_line_signs_the_net_change(recorder):
    assert recorder.src_lines_line(20336, 19850) == (
        "src lines: parent 20336, change 19850 (-486)"
    )
    assert recorder.src_lines_line(100, 104) == "src lines: parent 100, change 104 (+4)"
    assert recorder.src_lines_line(100, 100) == "src lines: parent 100, change 100 (+0)"


def test_pairs_alternate_and_each_gets_a_fresh_seed(recorder):
    plan = recorder.pair_plan(4, first_seed=700)
    assert [seed for seed, _ in plan] == [700, 701, 702, 703]
    assert [order for _, order in plan] == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
        ("change", "parent"),
    ]


def test_output_name_never_overwrites(recorder, tmp_path):
    names = []
    for _ in range(3):
        path = recorder.output_path(tmp_path, "20261018")
        path.write_text("{}")
        names.append(path.name)
    assert names == ["BENCH_20261018.json", "BENCH_20261018b.json", "BENCH_20261018c.json"]


DECLARED = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.mark.parametrize("metric", DECLARED, ids=[m["name"] for m in DECLARED])
def test_each_declared_metric_reads_its_direction_and_bound(recorder, metric):
    """Twice the bound the wrong way is worse; half of it is not."""
    better, bound = metric["better"], metric["bound"]
    for step, expected in ((2 * bound, "worse"), (bound / 2, "within bound")):
        factor = 1 + step if better == "lower" else 1 / (1 + step)
        change = [v * factor for v in PARENT]
        assert _verdict(recorder, PARENT, change, better, bound) == expected


def test_record_workload_runs_the_plan_in_order(recorder, monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        value = 2.0 if tree == "change" else 1.0
        return {}, {"failed": 0, "attempted": 5, "metrics": {"wall_s": {"value": value}}}

    monkeypatch.setattr(recorder, "run_once", fake_run)
    trees = {"parent": "parent", "change": "change"}
    declared = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    record, _ = recorder.record_workload(
        trees, "cli_cells", recorder.pair_plan(3, 40), 1.0, declared
    )
    assert calls == [("parent", 40), ("change", 40), ("change", 41),
                     ("parent", 41), ("parent", 42), ("change", 42)]
    assert record["seeds"] == [40, 41, 42]
    assert record["attempted"] == {"parent": [5] * 3, "change": [5] * 3}
    wall = record["metrics"]["wall_s"]
    assert wall["values"] == {"parent": [1.0] * 3, "change": [2.0] * 3}
    assert (wall["verdict"], wall["pairs_won"]) == ("worse", "0/3")
    row = recorder.verdict_table({"cli_cells": record}).splitlines()[-1]
    assert row == "| cli_cells | wall_s | 1 | 2 | +100.0% | 0/3 | worse |"


@pytest.mark.parametrize(
    "argv",
    [["HEAD", "--pairs", "1"], ["HEAD", "--pairs", "0"], ["HEAD", "--workloads", "nope"]],
    ids=["one-pair", "no-pairs", "unknown-workload"],
)
def test_bad_arguments_are_usage_errors(recorder, argv, capsys):
    """Rejected before any git call or perfbench run."""
    with pytest.raises(SystemExit) as excinfo:
        recorder.main(argv)
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_current_numbers_cite_the_newest_record():
    """PERFORMANCE.md's "Current numbers" heading names the newest
    ``BENCH_*.json`` in the repository root (names sort by date, then
    by the recorder's ``b``, ``c``, … suffix)."""
    root = SCRIPT.parent.parent
    newest = max(path.name for path in root.glob("BENCH_*.json"))
    lines = (root / "PERFORMANCE.md").read_text().splitlines()
    heading = next(line for line in lines if line.startswith("## Current numbers"))
    assert f"`{newest}`" in heading


def test_current_numbers_are_the_generated_section():
    """PERFORMANCE.md's "Current numbers" section is exactly what
    ``scripts/current_numbers.py`` writes from the newest record."""
    path = SCRIPT.parent / "current_numbers.py"
    spec = importlib.util.spec_from_file_location("current_numbers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.current_section() == module.render(module.newest_record())
