#!/usr/bin/env python3
"""Write PERFORMANCE.md's "Current numbers" section from the newest
``BENCH_*.json`` record of ``scripts/perf_record.py``.

Usage::

    python3 scripts/current_numbers.py   # rewrite the section

The newest record is the greatest file name (names sort by date, then
by the recorder's ``b``, ``c``, ... suffix).  The section runs from its
``## Current numbers`` heading to the next heading; the text after it
(the ``### Earlier:`` records) is left as it is.  Every number in the
section comes from the record, so the section and the record cannot
disagree; a test in tier-1 checks that the file holds exactly what
this script writes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
PERFORMANCE = ROOT / "PERFORMANCE.md"
HEADING = "## Current numbers"


def newest_record() -> Path:
    """The newest ``BENCH_*.json`` in the repository root."""
    return max(ROOT.glob("BENCH_*.json"), key=lambda path: path.name)


def _number(value: float) -> str:
    return f"{value:.4g}"


def render(record: Path) -> str:
    """The section for ``record``, heading included, ending in a newline."""
    data: Dict = json.loads(record.read_text())
    meta = data["meta"]
    parent = meta["parent"]["commit"][:7]
    change = meta["change"]["commit"] or f"src/ tree {meta['change']['src_tree'][:7]}"
    lines: List[str] = [
        f"{HEADING} (`{record.name}`)",
        "",
        f"Written by `scripts/current_numbers.py` from `{record.name}`: "
        f"`scripts/perf_record.py` pairs of the change ({change}) against "
        f"its parent `{parent}`, on {meta['host']['nproc']} cores of "
        f"{meta['host']['cpu_model']}, Python {meta['host']['python']}. "
        "Each row gives both sides' median, the change's median delta, the "
        "pairs the change won and the recorder's verdict.",
        "",
        "| workload | pairs | metric | parent | change | delta | won | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, pairs in data["pairs"].items():
        shape = f"{len(pairs['seeds'])} × {pairs['seconds']:g} s"
        for metric, result in pairs["metrics"].items():
            lines.append(
                f"| `{workload}` | {shape} | `{metric}` "
                f"| {_number(result['parent']['median'])} "
                f"| {_number(result['change']['median'])} "
                f"| {result['median_delta']:+.1%} "
                f"| {result['pairs_won']} | {result['verdict']} |"
            )
    failed = {
        workload: pairs["failed"]
        for workload, pairs in data["pairs"].items()
        if any(sum(side) for side in pairs["failed"].values())
    }
    lines.append("")
    if failed:
        lines.append(f"Runs failed output checks: `{json.dumps(failed, sort_keys=True)}`.")
    else:
        lines.append("No run failed an output check.")
    return "\n".join(lines) + "\n"


def _split(text: str):
    """``(before, section, after)`` of PERFORMANCE.md's text."""
    start = text.index(HEADING)
    following = [
        text.find(marker, start + len(HEADING)) for marker in ("\n## ", "\n### ")
    ]
    found = [at for at in following if at >= 0]
    end = min(found) + 1 if found else len(text)
    return text[:start], text[start:end], text[end:]


def current_section() -> str:
    """The section as PERFORMANCE.md holds it, up to the next heading,
    without the blank lines before that heading."""
    return _split(PERFORMANCE.read_text())[1].rstrip("\n") + "\n"


def main() -> None:
    before, _section, after = _split(PERFORMANCE.read_text())
    section = render(newest_record())
    PERFORMANCE.write_text(before + section + ("\n" + after if after else ""))


if __name__ == "__main__":
    main()
