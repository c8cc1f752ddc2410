"""Job identity and the service's state machine.

A *job* is one scenario sweep the service has promised to finish:
a :class:`~repro.scenarios.ScenarioSpec` plus the seed range and kernel
knobs that could change its results.  Its identity is the SHA-256 of
exactly those inputs serialised canonically (:func:`job_key`) — content
addressing, the same discipline the schedule cache and the sweep
checkpoint already use.  Two submissions that would produce the same
report therefore collapse to one job record, however many clients
submit them and however the service is restarted in between.

State machine::

    queued ──► running ──► done
                  │   ├──► quarantined   (report exists; some seeds failed)
                  │   └──► failed        (no report could be produced)
                  └──► queued            (service stopped/crashed mid-job:
                                          recovery re-queues, the checkpoint
                                          keeps the finished seeds)

``done``/``failed``/``quarantined`` are terminal.  The only
backwards edge is crash recovery's ``running → queued``, which is what
makes a ``kill -9`` of the service survivable: the job's identity and
its per-seed checkpoint are both on disk, so the next start re-queues
the job and the scheduler re-runs only the missing seeds.
"""

from __future__ import annotations

import json
from hashlib import sha256
from typing import Dict, Optional, Tuple

from ..errors import invalid_field
from ..records import Record
from ..scenarios import ScenarioSpec

#: Job states (the strings stored in the job store).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"

JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, QUARANTINED)

#: States a job can move to from each state.
_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    QUEUED: (RUNNING,),
    RUNNING: (DONE, FAILED, QUARANTINED, QUEUED),
    DONE: (),
    FAILED: (),
    QUARANTINED: (),
}

#: Terminal states: the job's record will never change again.
TERMINAL_STATES = (DONE, FAILED, QUARANTINED)


def check_transition(current: str, new: str) -> None:
    """Validate one state-machine edge (raises ``ConfigurationError``)."""
    if new not in _TRANSITIONS.get(current, ()):
        raise invalid_field(
            "Job", "state", new,
            f"no transition {current!r} -> {new!r}; "
            f"allowed: {list(_TRANSITIONS.get(current, ()))}",
        )


def job_key(
    spec: ScenarioSpec,
    repeats: int,
    base_seed: int,
    kernel: Optional[str] = None,
    setup_kernel: Optional[str] = None,
) -> str:
    """The content-addressed identity of one sweep job.

    Covers everything that can change the job's *report*: the spec's
    canonical JSON document, the seed range, and the kernel knobs (the
    kernels are bit-identical, but someone pinning ``legacy`` is
    bisecting and must not be handed a fast-kernel job's record).
    Deliberately excludes everything that cannot: worker counts, shard
    sizes, timeouts, telemetry, submission time, submitting host.
    """
    payload = {
        "spec": spec.to_dict(),
        "repeats": repeats,
        "base_seed": base_seed,
        "kernel": kernel,
        "setup_kernel": setup_kernel,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


class JobRecord(Record):
    """One durable job as the store persists it.

    ``spec_json`` is the spec's canonical JSON (the submission payload
    survives restarts verbatim); ``result_json`` is the finished
    report's exact bytes (``ScenarioOutcome.to_json()``, loaded from
    the job's result-blob file), set only in ``done``/``quarantined``;
    ``error`` is set only in ``failed``.  ``evicted`` marks a terminal
    job whose blob ``service gc`` removed on purpose (as opposed to a
    blob that is *missing*, which is an inconsistency fsck reports).
    ``submit_order`` is the FIFO position (a counter, not a timestamp —
    nothing wall-clock enters the store).
    """

    job_id: str
    spec_json: str
    repeats: int
    base_seed: int
    kernel: Optional[str]
    setup_kernel: Optional[str]
    state: str
    error: Optional[str] = None
    result_json: Optional[str] = None
    submit_order: int = 0
    evicted: bool = False

    def spec(self) -> ScenarioSpec:
        """Rebuild the submitted spec."""
        return ScenarioSpec.from_json(self.spec_json)

    def describe(self) -> Dict[str, object]:
        """The status-endpoint view (no result payload)."""
        info: Dict[str, object] = {
            "job": self.job_id,
            "state": self.state,
            "scenario": json.loads(self.spec_json).get("name"),
            "repeats": self.repeats,
            "base_seed": self.base_seed,
        }
        if self.kernel is not None:
            info["kernel"] = self.kernel
        if self.setup_kernel is not None:
            info["setup_kernel"] = self.setup_kernel
        if self.error is not None:
            info["error"] = self.error
        if self.evicted:
            # Terminal without a blob: `service gc` evicted the result
            # (the record itself survives so resubmissions still dedup).
            info["evicted"] = True
        return info
