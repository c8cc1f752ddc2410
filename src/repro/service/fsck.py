"""``repro service fsck``: audit (and repair) a service data dir.

:meth:`~repro.service.store.JobStore.recover` already repairs job
*state* at every start (``running → queued``); this module is the same
idea for the *artefacts* — the cross-checks between the three things a
data dir persists:

* the job rows in ``jobs.sqlite``,
* the per-seed checkpoint files (``checkpoints/sweep-<key>.jsonl``),
* the result blobs (``results/<job_id>.json``).

:func:`fsck_data_dir` walks all three and reports every inconsistency
a crash, a failing disk, or bit rot can produce as a structured
finding:

=========================  ====================================================
kind                       meaning
=========================  ====================================================
``stale_temp_file``        a ``.<name>.tmp-<pid>`` atomic-write temp left by a
                           crash mid-replace
``torn_checkpoint_line``   a checkpoint's trailing line is an unterminated
                           fragment (crash mid-append)
``corrupt_checkpoint_line``  a non-trailing line fails to parse, or its
                           ``check`` digest mismatches (corruption at rest)
``orphan_checkpoint``      a checkpoint file no job row accounts for
``stale_running_job``      a row left ``running`` by a dead process
``missing_result_blob``    a ``done``/``quarantined`` row without its blob
``corrupt_result_blob``    a blob that is not valid JSON
``result_blob_mismatch``   a blob whose result/failure count contradicts the
                           row's ``repeats``
``orphan_result_blob``     a blob for an unknown, evicted or non-terminal job
``unloadable_spec``        a row whose spec no longer lowers (report-only)
``job_key_mismatch``       a row whose id is not the content hash of its own
                           fields (report-only)
=========================  ====================================================

With ``repair=True`` every repairable finding is fixed the conservative
way: checkpoint files are rewritten (through the atomic seam) keeping
only verified lines, orphans and temp debris are pruned, and
inconsistent jobs are *demoted to queued* — never patched in place —
so the next service start recomputes exactly the missing work from the
surviving checkpoint lines and reconverges to byte-identical reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..experiments import SweepCheckpoint, decode_checkpoint_line
from ..scenarios import lower_job
from ..storage import atomic_write_text
from .state import DONE, QUARANTINED, RUNNING, job_key
from .store import JobStore


def _finding(
    kind: str, subject: str, detail: str, repaired: bool = False
) -> Dict[str, object]:
    return {
        "kind": kind,
        "subject": subject,
        "detail": detail,
        "repaired": repaired,
    }


def _scan_checkpoint(
    path: Path, repair: bool, findings: List[Dict[str, object]]
) -> None:
    """Verify one checkpoint file line by line; with ``repair``,
    rewrite it keeping only the lines that verify."""
    raw = path.read_text()
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # properly terminated file
        terminated = True
    else:
        terminated = False
    good: List[str] = []
    bad = 0
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        last = index == len(lines) - 1
        try:
            decode_checkpoint_line(line)
        except (ValueError, KeyError, TypeError) as exc:
            bad += 1
            if last and not terminated:
                kind = "torn_checkpoint_line"
                detail = "unterminated trailing fragment (crash mid-append)"
            else:
                kind = "corrupt_checkpoint_line"
                detail = f"line {index + 1}: {type(exc).__name__}: {exc}"
            findings.append(_finding(kind, path.name, detail, repaired=repair))
        else:
            good.append(line)
    if bad and repair:
        atomic_write_text(
            path, "".join(line + "\n" for line in good)
        )


def fsck_data_dir(
    data_dir: Union[str, Path], repair: bool = False
) -> Dict[str, object]:
    """Audit one service data dir; see the module docstring.

    Returns the structured report the CLI prints as JSON:
    ``{"data_dir", "jobs", "checkpoints", "result_blobs", "findings",
    "repaired", "unrepaired", "clean"}``.
    """
    data_dir = Path(data_dir)
    findings: List[Dict[str, object]] = []

    # --- atomic-write temp debris anywhere under the data dir.
    for tmp in sorted(data_dir.glob("**/.*.tmp-*")):
        findings.append(
            _finding(
                "stale_temp_file",
                str(tmp.relative_to(data_dir)),
                "atomic-write temporary left by a crash mid-replace",
                repaired=repair,
            )
        )
        if repair:
            tmp.unlink(missing_ok=True)

    # --- checkpoint line integrity.
    checkpoint_dir = data_dir / "checkpoints"
    checkpoint_files = (
        sorted(checkpoint_dir.glob("sweep-*.jsonl"))
        if checkpoint_dir.is_dir()
        else []
    )
    for path in checkpoint_files:
        _scan_checkpoint(path, repair, findings)

    # --- job rows vs artefacts (only when a store exists).
    store_path = data_dir / "jobs.sqlite"
    store: Optional[JobStore] = None
    records = []
    claimed_keys = set()
    if store_path.exists():
        store = JobStore(store_path)
        records = store.list_jobs()
        checkpoint = SweepCheckpoint(checkpoint_dir)
        for record in records:
            demote = None
            try:
                topology, config = lower_job(
                    record.spec(),
                    repeats=record.repeats,
                    base_seed=record.base_seed,
                    kernel=record.kernel,
                    setup_kernel=record.setup_kernel,
                )
            except Exception as exc:
                findings.append(
                    _finding(
                        "unloadable_spec",
                        record.job_id,
                        f"spec no longer lowers: {type(exc).__name__}: {exc}",
                    )
                )
            else:
                claimed_keys.add(checkpoint.key_for(topology, config))
                expected = job_key(
                    record.spec(), record.repeats, record.base_seed,
                    record.kernel, record.setup_kernel,
                )
                if expected != record.job_id:
                    findings.append(
                        _finding(
                            "job_key_mismatch",
                            record.job_id,
                            f"row id is not the content hash of its own "
                            f"fields (expected {expected[:12]}…)",
                        )
                    )
            if record.state == RUNNING:
                findings.append(
                    _finding(
                        "stale_running_job",
                        record.job_id,
                        "left running by a dead process",
                        repaired=repair,
                    )
                )
                demote = record.job_id
            elif record.state in (DONE, QUARANTINED) and not record.evicted:
                blob = store.result_path(record.job_id)
                if not blob.exists():
                    findings.append(
                        _finding(
                            "missing_result_blob",
                            record.job_id,
                            f"terminal job without {blob.name}",
                            repaired=repair,
                        )
                    )
                    demote = record.job_id
                else:
                    try:
                        doc = json.loads(blob.read_text())
                    except ValueError as exc:
                        findings.append(
                            _finding(
                                "corrupt_result_blob",
                                record.job_id,
                                f"{blob.name}: {exc}",
                                repaired=repair,
                            )
                        )
                        demote = record.job_id
                    else:
                        runs = doc.get("runs")
                        failed = doc.get("failures", [])
                        if not isinstance(runs, list) or not isinstance(
                            failed, list
                        ) or len(runs) + len(failed) != record.repeats:
                            count = len(runs) if isinstance(runs, list) else 0
                            findings.append(
                                _finding(
                                    "result_blob_mismatch",
                                    record.job_id,
                                    f"{count} runs + {len(failed)} failures "
                                    f"!= {record.repeats} repeats",
                                    repaired=repair,
                                )
                            )
                            demote = record.job_id
            if repair and demote is not None:
                store.demote(demote)

        # --- orphaned checkpoint files.
        for path in checkpoint_files:
            key = path.name[len("sweep-") : -len(".jsonl")]
            if key not in claimed_keys:
                findings.append(
                    _finding(
                        "orphan_checkpoint",
                        path.name,
                        "no job row accounts for this sweep key",
                        repaired=repair,
                    )
                )
                if repair:
                    path.unlink(missing_ok=True)

        # --- orphaned result blobs.
        by_id = {record.job_id: record for record in records}
        results_dir = store.results_dir
        blobs = (
            sorted(results_dir.glob("*.json")) if results_dir.is_dir() else []
        )
        for blob in blobs:
            record = by_id.get(blob.stem)
            if record is None:
                detail = "no job row accounts for this blob"
            elif record.evicted:
                detail = "blob survived gc eviction"
            elif record.state not in (DONE, QUARANTINED):
                detail = (
                    f"blob for a {record.state} job "
                    "(crash between blob write and state flip)"
                )
            else:
                continue
            findings.append(
                _finding("orphan_result_blob", blob.name, detail, repaired=repair)
            )
            if repair:
                blob.unlink(missing_ok=True)
    else:
        results_dir = data_dir / "results"
        blobs = (
            sorted(results_dir.glob("*.json")) if results_dir.is_dir() else []
        )

    repaired = sum(1 for f in findings if f["repaired"])
    unrepaired = len(findings) - repaired
    return {
        "data_dir": str(data_dir),
        "store": store_path.exists(),
        "jobs": len(records),
        "checkpoints": len(checkpoint_files),
        "result_blobs": len(blobs),
        "findings": findings,
        "repaired": repaired,
        "unrepaired": unrepaired,
        "clean": not findings,
    }
