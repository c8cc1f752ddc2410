#!/usr/bin/env python3
"""Record perfbench pairs of a base commit against the working tree,
and fail on a regression.

Usage::

    python3 scripts/perf_record.py BASE_REF [--pairs N] [--seconds S] [--workloads W ...]

Both sides run the working tree's ``perfbench/`` and ``BENCHMARK.json``.
The recorder copies them into two trees in a temporary directory: one
beside ``git archive BASE_REF src`` (the parent) and one beside the
working tree's ``src/`` (the change).  Each workload gets N alternated
pairs of ``perfbench/run.py --trace 0`` runs.  Pair k has its own seed,
and the parent runs first when k is even.

Every run lands in a new ``BENCH_<date>.json`` (suffixed b, c, ... so
that no record is overwritten), and a markdown table of each
end-to-end metric's verdict goes to stdout.  The verdict rule is
``METHOD``, with the bounds ``BENCHMARK.json`` declares.  The exit
status is 1 when a metric reads "worse", or when the change fails a
larger share of perfbench's output checks than the parent; 2 when a
perfbench run crashes; else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0"

METHOD = (
    "alternated pairs on copies of both trees: pair k runs the parent first "
    "when k is even and the change first when k is odd; each pair uses a "
    "fresh seed. Quartiles are statistics.quantiles(n=4, method='inclusive'). "
    "A metric is improved when the change wins at least nine tenths of its "
    "pairs (ties count for neither), its median delta exceeds its "
    "BENCHMARK.json bound and the medians differ by more than the parent's "
    "IQR. Otherwise it is unresolved when the parent's IQR exceeds the bound "
    "times the parent's median, unless every change run reads better than "
    "every parent run, or every one worse. Otherwise it is worse when its "
    "median delta exceeds the bound in the wrong direction, and within bound "
    "if not. values holds every run, in pair order."
)

PARENT, CHANGE = "parent", "change"


def pair_plan(pairs: int, first_seed: int) -> List[Tuple[int, Tuple[str, str]]]:
    """``(seed, run order)`` of each pair: a fresh seed per pair, and
    the parent first on even pairs."""
    return [
        (first_seed + k, (PARENT, CHANGE) if k % 2 == 0 else (CHANGE, PARENT))
        for k in range(pairs)
    ]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, minimum, quartiles and IQR of ``values`` (at least two)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": statistics.median(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(values),
    }


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Compare one metric's pairs by ``METHOD``; ``parent[k]`` and
    ``change[k]`` come from pair k."""
    sign = 1 if better == "higher" else -1
    before, after = spread(parent), spread(change)
    delta = after["median"] / before["median"] - 1
    gain = sign * delta
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    apart = all(sign * (c - p) > 0 for c in change for p in parent) or all(
        sign * (c - p) < 0 for c in change for p in parent
    )
    if (
        gain > bound
        and 10 * won >= 9 * len(parent)
        and abs(after["median"] - before["median"]) > before["iqr"]
    ):
        outcome = "improved"
    elif before["iqr"] > bound * before["median"] and not apart:
        outcome = "unresolved"
    elif -gain > bound:
        outcome = "worse"
    else:
        outcome = "within bound"
    return {
        "parent": {k: round(v, 4) for k, v in before.items()},
        "change": {k: round(v, 4) for k, v in after.items()},
        "median_delta": round(delta, 4),
        "pairs_won": f"{won}/{len(parent)}",
        "verdict": outcome,
    }


def failed_more(failed: Dict[str, int], attempted: Dict[str, int]) -> bool:
    """Whether the change failed a larger share of its checks."""
    return failed[CHANGE] * attempted[PARENT] > failed[PARENT] * attempted[CHANGE]


def output_path(directory: Path, date: str) -> Path:
    """``BENCH_<date>.json``, or the first free ``BENCH_<date>b.json``,
    ``c``, ... after it."""
    path = directory / f"BENCH_{date}.json"
    suffix = "b"
    while path.exists():
        path = directory / f"BENCH_{date}{suffix}.json"
        suffix = chr(ord(suffix) + 1)
    return path


def _git(*args: str, **kwargs) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, **kwargs
    ).stdout.strip()


def build_trees(base: str, scratch: Path) -> Tuple[Dict[str, Path], str]:
    """The parent and change trees, and the git tree id of the change's
    ``src/`` (its tracked and untracked, not ignored files)."""
    trees = {PARENT: scratch / PARENT, CHANGE: scratch / CHANGE}
    harness = _git("ls-files", "perfbench").splitlines() + ["BENCHMARK.json"]
    source = _git("ls-files", "--cached", "--others", "--exclude-standard", "src")
    for tree in trees.values():
        for name in harness:
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)
    for name in source.splitlines():
        if (ROOT / name).exists():  # a deleted file is still in the index
            (trees[CHANGE] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, trees[CHANGE] / name)
    archive = scratch / "parent.tar"
    _git("archive", f"--output={archive}", base, "src")
    with tarfile.open(archive) as tar:
        tar.extractall(trees[PARENT], filter="data")
    index = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    _git("add", "--all", "src", env=index)
    return trees, _git("write-tree", "--prefix=src/", env=index)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Tuple[dict, dict]:
    """One untraced perfbench run: its host stamp and its result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench exited {proc.returncode} on the {tree.name} tree "
              f"({workload}, seed {seed})", file=sys.stderr)
        raise SystemExit(2)  # 1 is a verdict
    stamp, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(stamp)["meta"], json.loads(result)


def record_workload(trees, workload, plan, seconds, declared) -> Tuple[dict, dict]:
    """Run ``plan``'s pairs of ``workload``: its record, and the host
    stamp of each side."""
    values = {m["name"]: {PARENT: [], CHANGE: []} for m in declared}
    failed, attempted = {PARENT: [], CHANGE: []}, {PARENT: [], CHANGE: []}
    stamps = {}
    for k, (seed, order) in enumerate(plan):
        for side in order:
            stamps[side], result = run_once(trees[side], workload, seed, seconds)
            failed[side].append(result["failed"])
            attempted[side].append(result["attempted"])
            for name, runs in values.items():
                runs[side].append(round(result["metrics"][name]["value"], 5))
        print(f"{workload}: pair {k + 1}/{len(plan)} (seed {seed}) done", file=sys.stderr)
    metrics = {}
    for m in declared:
        runs = values[m["name"]]
        metrics[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **verdict(runs[PARENT], runs[CHANGE], m["better"], m["bound"]),
            "values": runs,
        }
    record = {
        "seeds": [seed for seed, _ in plan],
        "seconds": seconds,
        "metrics": metrics,
        "failed": failed,
        "attempted": attempted,
    }
    return record, stamps


def verdict_table(pairs: Dict[str, dict]) -> str:
    lines = [
        "| workload | metric | parent | change | delta | pairs won | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, record in pairs.items():
        for name, m in record["metrics"].items():
            lines.append(
                f"| {workload} | {name} | {m['parent']['median']:.4g} | "
                f"{m['change']['median']:.4g} | {m['median_delta']:+.1%} | "
                f"{m['pairs_won']} | {m['verdict']} |"
            )
    return "\n".join(lines)


def _at_least_two(value: str) -> int:
    pairs = int(value)
    if pairs < 2:
        raise argparse.ArgumentTypeError("a spread needs at least 2 pairs")
    return pairs


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref", metavar="BASE_REF", help="the parent commit")
    parser.add_argument("--pairs", type=_at_least_two, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    base = _git("rev-parse", "--verify", f"{args.base_ref}^{{commit}}")
    plan = pair_plan(args.pairs, random.randrange(1, 1_000_000))
    pairs = {}
    with tempfile.TemporaryDirectory(prefix="perf_record-") as scratch:
        trees, src_tree = build_trees(base, Path(scratch))
        for workload in args.workloads:
            pairs[workload], stamps = record_workload(
                trees, workload, plan, args.seconds, benchmark["end_to_end"]
            )
    failed, attempted = (
        {side: sum(sum(r[key][side]) for r in pairs.values()) for side in (PARENT, CHANGE)}
        for key in ("failed", "attempted")
    )
    host = {k: stamps[CHANGE][k] for k in ("nproc", "cpu_model", "python", "fsync")}
    today = time.localtime()
    meta = {
        "harness": "perfbench",
        "recorder": "scripts/perf_record.py",
        "date": time.strftime("%Y-%m-%d", today),
        "command": COMMAND,
        "method": METHOD,
        "parent": {
            "ref": args.base_ref,
            "commit": base,
            "src_lines": stamps[PARENT]["src_lines"],
        },
        "change": {
            "commit": None,
            "src_tree": src_tree,
            "src_lines": stamps[CHANGE]["src_lines"],
        },
        "host": host,
        "environment": "PYTHONDONTWRITEBYTECODE=1 on both sides, and neither "
        "tree has a __pycache__ directory, as on the benchmark host.",
    }
    path = output_path(ROOT, time.strftime("%Y%m%d", today))
    with open(path, "x") as handle:
        json.dump({"meta": meta, "pairs": pairs}, handle, indent=1)
        handle.write("\n")
    print(verdict_table(pairs))
    print(f"\nfailed checks: parent {failed[PARENT]}/{attempted[PARENT]}, "
          f"change {failed[CHANGE]}/{attempted[CHANGE]}")
    print(f"wrote {path.name}", file=sys.stderr)
    worse = any(
        m["verdict"] == "worse" for r in pairs.values() for m in r["metrics"].values()
    )
    return 1 if worse or failed_more(failed, attempted) else 0


if __name__ == "__main__":
    sys.exit(main())
