"""``repro service fsck``: audit (and repair) a service data dir.

:meth:`~repro.service.store.JobStore.recover` already repairs job
*state* at every start (``running → queued``); this module is the same
idea for the *artefacts* — the cross-checks between the three things a
data dir persists:

* the job log (``jobs.jsonl``),
* the per-seed checkpoint files (``checkpoints/sweep-<key>.jsonl``),
* the result blobs (``results/<job_id>.json``).

The two logs share one record format (digest-checked JSON lines,
:func:`~repro.storage.decode_digest_line`), so both get the same line
checks.  :func:`fsck_data_dir` walks all three and reports every
inconsistency a crash, a failing disk, or bit rot can produce as a
structured finding:

=========================  ====================================================
kind                       meaning
=========================  ====================================================
``stale_temp_file``        a ``.<name>.tmp-<pid>`` atomic-write temp left by a
                           crash mid-replace
``torn_job_line``          the job log's trailing line is an unterminated
                           fragment (crash mid-append)
``corrupt_job_line``       a non-trailing job-log line fails to parse, or its
                           ``check`` digest mismatches (corruption at rest)
``torn_checkpoint_line``   the same two checks on a checkpoint file
``corrupt_checkpoint_line``
``orphan_checkpoint``      a checkpoint file no job record accounts for
``stale_running_job``      a job left ``running`` by a dead process
``missing_result_blob``    a ``done``/``quarantined`` job without its blob
``corrupt_result_blob``    a blob that is not valid JSON
``result_blob_mismatch``   a blob whose result/failure count contradicts the
                           job's ``repeats``
``orphan_result_blob``     a blob for an unknown, evicted or non-terminal job
``unloadable_spec``        a job whose spec no longer lowers (report-only)
``job_key_mismatch``       a job whose id is not the content hash of its own
                           fields (report-only)
=========================  ====================================================

With ``repair=True`` every repairable finding is fixed the conservative
way: the job log and checkpoint files are rewritten (through the atomic
seam) keeping only verified lines, orphans and temp debris are pruned, and
inconsistent jobs are *demoted to queued* — never patched in place —
so the next service start recomputes exactly the missing work from the
surviving checkpoint lines and reconverges to byte-identical reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..experiments import SweepCheckpoint, decode_checkpoint_line
from ..scenarios import lower_job
from ..storage import atomic_write_text, decode_digest_line
from .state import DONE, QUARANTINED, RUNNING, job_key
from .store import JobStore, job_log_path


def _finding(
    kind: str, subject: str, detail: str, repaired: bool = False
) -> Dict[str, object]:
    return {
        "kind": kind,
        "subject": subject,
        "detail": detail,
        "repaired": repaired,
    }


def _blob_problem(record, blob: Path) -> Optional[Tuple[str, str]]:
    """What is wrong with a terminal job's result blob, as ``(kind,
    detail)``, or ``None``."""
    if not blob.exists():
        return "missing_result_blob", f"terminal job without {blob.name}"
    try:
        doc = json.loads(blob.read_text())
    except ValueError as exc:
        return "corrupt_result_blob", f"{blob.name}: {exc}"
    if not isinstance(doc, dict):
        return "corrupt_result_blob", f"{blob.name}: not a JSON object"
    runs, failed = doc.get("runs"), doc.get("failures", [])
    if isinstance(runs, list) and isinstance(failed, list):
        if len(runs) + len(failed) == record.repeats:
            return None
    runs, failed = (len(x) if isinstance(x, list) else 0 for x in (runs, failed))
    return (
        "result_blob_mismatch",
        f"{runs} runs + {failed} failures != {record.repeats} repeats",
    )


def _scan_log(
    path: Path,
    decode: Callable[[str], object],
    noun: str,
    repair: bool,
    findings: List[Dict[str, object]],
) -> None:
    """Verify one log line by line (``decode`` raises on a bad line);
    with ``repair``, rewrite it keeping only the lines that verify."""
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
            decode(line)
        except (ValueError, KeyError, TypeError) as exc:
            bad += 1
            if last and not terminated:
                kind = f"torn_{noun}_line"
                detail = "unterminated trailing fragment (crash mid-append)"
            else:
                kind = f"corrupt_{noun}_line"
                detail = f"line {index + 1}: {type(exc).__name__}: {exc}"
            findings.append(_finding(kind, path.name, detail, repaired=repair))
        else:
            good.append(line)
    if bad and repair:
        atomic_write_text(path, "".join(line + "\n" for line in good))


def fsck_data_dir(
    data_dir: Union[str, Path], repair: bool = False
) -> Dict[str, object]:
    """Audit one service data dir; see the module docstring.

    Returns the structured report the CLI prints as JSON:
    ``{"data_dir", "jobs", "checkpoints", "result_blobs", "findings",
    "repaired", "unrepaired", "clean"}``.
    """
    data_dir = Path(data_dir)
    store_path = job_log_path(data_dir)
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
        _scan_log(path, decode_checkpoint_line, "checkpoint", repair, findings)

    # --- job records vs artefacts (only when a job log exists).
    results_dir = data_dir / "results"
    blobs = sorted(results_dir.glob("*.json")) if results_dir.is_dir() else []
    records = []
    claimed_keys = set()
    if store_path.exists():
        _scan_log(store_path, decode_digest_line, "job", repair, findings)
        store = JobStore(store_path)
        records = store.list_jobs()
        checkpoint = SweepCheckpoint(checkpoint_dir)
        for record in records:
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
                            f"job id is not the content hash of its own "
                            f"fields (expected {expected[:12]}…)",
                        )
                    )
            if record.state == RUNNING:
                problem = ("stale_running_job", "left running by a dead process")
            elif record.state in (DONE, QUARANTINED) and not record.evicted:
                problem = _blob_problem(record, store.result_path(record.job_id))
            else:
                problem = None
            if problem is not None:
                kind, detail = problem
                findings.append(_finding(kind, record.job_id, detail, repair))
                if repair:
                    store.demote(record.job_id)

        # --- orphaned checkpoint files.
        for path in checkpoint_files:
            key = path.name[len("sweep-") : -len(".jsonl")]
            if key not in claimed_keys:
                findings.append(
                    _finding(
                        "orphan_checkpoint",
                        path.name,
                        "no job record accounts for this sweep key",
                        repaired=repair,
                    )
                )
                if repair:
                    path.unlink(missing_ok=True)

        # --- orphaned result blobs.
        by_id = {record.job_id: record for record in records}
        for blob in blobs:
            record = by_id.get(blob.stem)
            if record is None:
                detail = "no job record accounts for this blob"
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
