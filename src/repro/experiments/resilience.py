"""Fault-tolerant sweep execution: retries, checkpoints, divergence guard.

The parallel sweep engine's original failure story was all-or-nothing:
one crashed or hung pool worker aborted the whole sweep and threw away
every completed seed.  This module gives the experiment layer the same
degrade-gracefully-or-fail-loudly discipline the paper demands of its
setup phase, in five pieces:

:class:`Ladder`
    The one retry → bisect → quarantine policy, shared by the chunk
    supervisor below and the service's lease board.

:class:`WorkerSupervisor`
    Drives per-chunk futures with a configurable timeout, retries
    failed or hung chunks with exponential backoff and deterministic
    jitter (:class:`RetryPolicy`), has broken pools respawned, splits a
    repeatedly failing chunk to isolate poison seeds, and — instead of
    aborting — quarantines unrecoverable seeds as structured
    :class:`FailedRun` entries.  A sweep in which nothing fails is
    byte-identical to the pre-supervision engine.

:class:`SweepCheckpoint`
    An append-only on-disk store of completed per-seed results, keyed
    by a content digest of (topology fingerprint, canonicalised
    config).  An interrupted sweep resumed from its checkpoint re-runs
    only the missing seeds, and the merged report is bit-identical to
    an uninterrupted run (every run re-seeds from scratch, so result
    values cannot depend on which process executed them or when).

:func:`apply_divergence_guard`
    The runtime net under the fast kernels' compile-time gates: re-run
    a deterministic sample of a sweep's seeds on the legacy engines
    and compare results.  On mismatch it writes a reproducer bundle
    (topology fingerprint, seed, config, both results) and *degrades*
    the sweep to the legacy kernel instead of emitting silently wrong
    data.

:class:`FailedRun` / :class:`GuardReport`
    The structured records surfaced on
    :class:`~repro.experiments.ExperimentOutcome` (and from there in
    scenario reports) so partial results are always labelled as such.

The fault points the chaos tests drive through this machinery live in
:mod:`repro.experiments.faults`.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from concurrent.futures import BrokenExecutor, CancelledError, Future
from dataclasses import asdict, dataclass, replace
from hashlib import sha256
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import SweepExecutionError, invalid_field, sweep_failed
from ..storage import atomic_write_text, durable_append
from ..telemetry import absorb_worker_payload, active_tracer, default_registry
from .faults import active_fault_plan
from .options import GUARD_DIFFERENTIAL
from .schedule_cache import topology_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..app import OperationalResult

#: Checkpoint on-disk format version; part of every store key so a
#: format change can never silently merge with old entries.
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt, key)`` grows as ``base_delay * 2**(attempt-1)``,
    capped at ``max_delay``, scaled by a jitter factor in ``[0.5, 1.0)``
    drawn from ``(seed, attempt, key)`` — deterministic, so a retried
    sweep sleeps the same amount every time it is replayed (no
    wall-clock enters any result, but reproducible chaos tests want
    reproducible schedules too).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise invalid_field(
                "RetryPolicy", "max_attempts", self.max_attempts,
                "a chunk must be attempted at least once",
            )
        for name in ("base_delay", "max_delay"):
            if getattr(self, name) < 0:
                raise invalid_field(
                    "RetryPolicy", name, getattr(self, name),
                    "delays cannot be negative",
                )

    def delay(self, attempt: int, key: int = 0) -> float:
        """The back-off before retrying after failed ``attempt``."""
        raw = min(self.base_delay * (2 ** max(attempt - 1, 0)), self.max_delay)
        jitter = random.Random(f"{self.seed}:{attempt}:{key}").random()
        return raw * (0.5 + 0.5 * jitter)


# ----------------------------------------------------------------------
# Structured failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailedRun:
    """One quarantined seed: every recovery avenue was exhausted.

    Attributes
    ----------
    seed:
        The seed whose run never completed.
    attempts:
        Attempts made at the final (single-seed) isolation level.
    kind:
        ``"crash"`` (the worker process died), ``"timeout"`` (hung
        past the chunk or lease timeout), ``"error"`` (the run raised), or
        ``"submit"`` (the chunk could not even be dispatched, e.g. a
        pickling failure).
    error:
        ``TypeName: message`` of the last observed exception.
    """

    seed: int
    attempts: int
    kind: str
    error: str


@dataclass(frozen=True)
class GuardReport:
    """What the kernel-divergence guard saw on one sweep.

    ``degraded`` means a mismatch was found and the reported results
    were re-computed on the legacy engines; ``bundle_path`` then names
    the reproducer bundle written for the kernel bug hunt.
    """

    mode: str
    sampled_seeds: Tuple[int, ...]
    mismatched_seeds: Tuple[int, ...]
    degraded: bool
    bundle_path: Optional[str] = None


# ----------------------------------------------------------------------
# Worker supervision
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rung:
    """One decision of the :class:`Ladder` for a failed unit of seeds.

    ``requeue`` lists ``(seeds, attempt)`` units to queue again (one on
    a retry, two halves on a bisection, none on quarantine); ``delay``
    is the back-off they owe; ``failure`` is the quarantine record.
    """

    requeue: Tuple[Tuple[Tuple[int, ...], int], ...]
    delay: float
    failure: Optional[FailedRun] = None


class Ladder:
    """The one retry → bisect → quarantine policy every executor uses.

    Pure decision logic: given a failed unit's seeds, the attempt that
    failed and the failure kind, :meth:`climb` says what happens next
    and never touches a queue or a clock.  A unit with attempts left is
    retried with the :class:`RetryPolicy` backoff; a unit out of
    attempts is *bisected* (both halves start fresh at attempt 1 — its
    seeds are suspects, not convicts — after the same backoff); a
    single seed out of attempts is quarantined as a :class:`FailedRun`.
    Repeated failures therefore isolate the poison seed while its
    former unit-mates complete normally.

    Each decision is counted under ``<namespace>.{retries, timeouts,
    bisections, quarantined}`` and, when tracing, marked with a
    ``<unit>.{retry, bisect, quarantine}`` instant.  The chunk
    supervisor uses ``("supervisor", "chunk")``, the service's lease
    board ``("service", "shard")``.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        namespace: str = "supervisor",
        unit: str = "chunk",
    ) -> None:
        self._retry = retry if retry is not None else RetryPolicy()
        self._namespace = namespace
        self._unit = unit

    def climb(
        self, seeds: Tuple[int, ...], attempt: int, kind: str, error: str
    ) -> Rung:
        """Charge ``attempt`` at ``seeds`` (failure ``kind``, last
        error ``error``) and decide the unit's next step."""
        registry = default_registry()
        tracer = active_tracer()
        ns, unit = self._namespace, self._unit
        if kind == "timeout":
            registry.inc(f"{ns}.timeouts")
        if attempt < self._retry.max_attempts:
            registry.inc(f"{ns}.retries")
            if tracer is not None:
                tracer.instant(
                    f"{unit}.retry", seeds=list(seeds), attempt=attempt, kind=kind
                )
            return Rung(
                ((seeds, attempt + 1),), self._retry.delay(attempt, key=seeds[0])
            )
        if len(seeds) > 1:
            registry.inc(f"{ns}.bisections")
            if tracer is not None:
                tracer.instant(f"{unit}.bisect", seeds=list(seeds))
            mid = len(seeds) // 2
            return Rung(
                ((seeds[:mid], 1), (seeds[mid:], 1)),
                self._retry.delay(attempt, key=seeds[0]),
            )
        registry.inc(f"{ns}.quarantined")
        if tracer is not None:
            tracer.instant(f"{unit}.quarantine", seed=seeds[0], kind=kind)
        return Rung((), 0.0, FailedRun(seeds[0], attempt, kind, error))


def nothing_survived(
    owner: str, seeds: Sequence[int], failures: Sequence[FailedRun]
) -> SweepExecutionError:
    """The error for a sweep of ``seeds`` that produced no result at
    all, naming the quarantined seeds and the attempts they cost."""
    return sweep_failed(
        owner,
        seeds=[f.seed for f in failures] or list(seeds),
        attempts=max((f.attempts for f in failures), default=0),
        detail=failures[0].error if failures else "no seeds executed",
    )


class _Task:
    """One chunk of seeds queued for (re-)execution."""

    __slots__ = ("seeds", "attempt")

    def __init__(self, seeds: Tuple[int, ...], attempt: int) -> None:
        self.seeds = seeds
        self.attempt = attempt


class WorkerSupervisor:
    """Supervised gather of chunked seed runs over a worker pool.

    The supervisor owns *policy* (timeouts, retries, splitting,
    quarantine) and delegates *mechanism* to two callables supplied by
    the runner: ``submit(seeds) -> Future`` dispatches one chunk to the
    current pool, and ``respawn(kill)`` discards a broken or hung pool
    so the next ``submit`` gets a fresh one (``kill=True`` additionally
    terminates the pool's processes — the only way to reclaim a hung
    worker).

    Failure semantics:

    * a chunk future raising an ordinary exception is retried up to
      ``retry.max_attempts`` times with backoff;
    * a broken pool (worker death) is respawned; the observed chunk
      *and every other unfinished in-flight chunk* get a retry attempt
      charged, because the culprit cannot be identified — with one
      deterministic crasher this converges to isolating it, at worst
      quarantining the seeds that shared its rounds;
    * a chunk exceeding ``chunk_timeout`` has the pool killed and is
      charged an attempt; other in-flight chunks are re-queued without
      blame (their worker was murdered, not wedged);
    * a chunk out of attempts is *split* in half and both halves start
      fresh — repeated failures therefore bisect down to the poison
      seed, which is quarantined as a :class:`FailedRun` while its
      former chunk-mates complete normally.

    Results are keyed by seed, so completion order — reshuffled by
    every retry — cannot affect the reassembled sweep.  The supervisor
    never looks inside a result: a chunk's future resolves to one
    result per seed, of whatever type the per-seed function returns.
    """

    def __init__(
        self,
        submit: Callable[[Tuple[int, ...]], Future],
        respawn: Callable[[bool], None],
        retry: Optional[RetryPolicy] = None,
        chunk_timeout: Optional[float] = None,
        on_result: Optional[Callable[[int, object], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise invalid_field(
                "WorkerSupervisor", "chunk_timeout", chunk_timeout,
                "a timeout must be positive (None disables it)",
            )
        self._submit = submit
        self._respawn = respawn
        self._ladder = Ladder(retry, "supervisor", "chunk")
        self._chunk_timeout = chunk_timeout
        self._on_result = on_result
        self._sleep = sleep
        self._plan = active_fault_plan()

    def execute(
        self, chunks: Sequence[Tuple[int, ...]]
    ) -> Tuple[Dict[int, object], Tuple[FailedRun, ...]]:
        """Run every chunk to completion or quarantine.

        Returns results keyed by seed plus the quarantine records,
        ordered by seed.
        """
        results: Dict[int, object] = {}
        failures: List[FailedRun] = []
        queue: Deque[_Task] = deque(
            _Task(tuple(chunk), 1) for chunk in chunks if chunk
        )
        while queue:
            batch = list(queue)
            queue.clear()
            round_delay = 0.0

            in_flight: List[Tuple[_Task, Future]] = []
            for task in batch:
                future, delay = self._try_submit(task, queue, failures)
                round_delay = max(round_delay, delay)
                if future is not None:
                    in_flight.append((task, future))

            pool_dead = False
            blame_rest = False
            for task, future in in_flight:
                if pool_dead:
                    # The pool died earlier in this round.  Harvest
                    # chunks that had already finished; charge the rest
                    # an attempt only when worker death left the
                    # culprit unidentifiable.
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        self._harvest(task, future.result(), results)
                    elif blame_rest:
                        round_delay = max(
                            round_delay,
                            self._retry_or_fail(
                                task,
                                BrokenExecutor("pool broke mid-round"),
                                "crash",
                                queue,
                                failures,
                            ),
                        )
                    else:
                        queue.append(task)
                    continue
                try:
                    chunk_results = future.result(timeout=self._chunk_timeout)
                except CancelledError:
                    queue.append(task)
                except BrokenExecutor as exc:
                    pool_dead = True
                    blame_rest = True
                    self._note_respawn(False)
                    round_delay = max(
                        round_delay,
                        self._retry_or_fail(task, exc, "crash", queue, failures),
                    )
                except TimeoutError as exc:
                    pool_dead = True
                    self._note_respawn(True)
                    round_delay = max(
                        round_delay,
                        self._retry_or_fail(task, exc, "timeout", queue, failures),
                    )
                except Exception as exc:
                    round_delay = max(
                        round_delay,
                        self._retry_or_fail(task, exc, "error", queue, failures),
                    )
                else:
                    self._harvest(task, chunk_results, results)

            if queue and round_delay > 0:
                self._sleep(round_delay)

        failures.sort(key=lambda f: f.seed)
        return results, tuple(failures)

    # ------------------------------------------------------------------
    def _try_submit(
        self, task: _Task, queue: Deque[_Task], failures: List[FailedRun]
    ) -> Tuple[Optional[Future], float]:
        try:
            if self._plan is not None:
                self._plan.before_submit(task.seeds)
            future = self._submit(task.seeds)
        except BrokenExecutor as exc:
            self._note_respawn(False)
            return None, self._retry_or_fail(task, exc, "crash", queue, failures)
        except Exception as exc:
            return None, self._retry_or_fail(task, exc, "submit", queue, failures)
        default_registry().inc("supervisor.chunks")
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                "chunk.dispatch", seeds=list(task.seeds), attempt=task.attempt
            )
        return future, 0.0

    def _note_respawn(self, kill: bool) -> None:
        default_registry().inc("supervisor.respawns")
        self._respawn(kill)

    def _harvest(
        self,
        task: _Task,
        chunk_results: Sequence[object],
        results: Dict[int, object],
    ) -> None:
        payload = getattr(chunk_results, "telemetry", None)
        if payload is not None:
            # A telemetry-enabled worker shipped its spans and metrics
            # with the chunk; merge them onto the parent's timeline.
            absorb_worker_payload(payload)
        for seed, result in zip(task.seeds, chunk_results):
            results[seed] = result
            if self._on_result is not None:
                self._on_result(seed, result)

    def _retry_or_fail(
        self,
        task: _Task,
        exc: BaseException,
        kind: str,
        queue: Deque[_Task],
        failures: List[FailedRun],
    ) -> float:
        """Requeue, split, or quarantine a failed task as the
        :class:`Ladder` decides; return the backoff its round owes."""
        rung = self._ladder.climb(
            task.seeds, task.attempt, kind, f"{type(exc).__name__}: {exc}"
        )
        queue.extend(_Task(seeds, attempt) for seeds, attempt in rung.requeue)
        if rung.failure is not None:
            failures.append(rung.failure)
        return rung.delay


# ----------------------------------------------------------------------
# Result (de)serialisation — the checkpoint store's line format
# ----------------------------------------------------------------------
def result_to_dict(result: OperationalResult) -> Dict[str, object]:
    """An :class:`OperationalResult` as JSON-ready primitives."""
    return asdict(result)


def encode_checkpoint_line(seed: int, result: OperationalResult) -> str:
    """One seed's checkpoint record: the JSON entry plus a ``check``
    digest over its canonical serialisation, so corruption *at rest*
    (bit rot, a lying disk) is detectable — not just torn writes."""
    entry = {"result": result_to_dict(result), "seed": seed}
    body = json.dumps(entry, sort_keys=True)
    check = sha256(body.encode()).hexdigest()[:16]
    entry["check"] = check
    return json.dumps(entry, sort_keys=True)


def decode_checkpoint_line(line: str) -> Tuple[int, OperationalResult]:
    """Invert :func:`encode_checkpoint_line`, verifying the digest.

    Raises ``ValueError``/``KeyError``/``TypeError`` for malformed or
    digest-mismatched lines (pre-digest lines, which carry no ``check``
    field, are accepted — old checkpoints stay resumable).
    """
    entry = json.loads(line)
    check = entry.pop("check", None)
    if check is not None:
        body = json.dumps(entry, sort_keys=True)
        if sha256(body.encode()).hexdigest()[:16] != check:
            raise ValueError("checkpoint line digest mismatch")
    return int(entry["seed"]), result_from_dict(entry["result"])


def result_from_dict(data: Dict[str, object]) -> OperationalResult:
    """Invert :func:`result_to_dict` exactly (tuples restored, so a
    round-tripped result compares equal to the original).  Imports the
    operational engine on first use: the pool that supervises the
    setup-only overhead experiment never decodes a result."""
    from ..app import OperationalResult

    return OperationalResult(
        captured=data["captured"],
        capture_period=data["capture_period"],
        capture_time=data["capture_time"],
        periods_run=data["periods_run"],
        safety_periods=data["safety_periods"],
        attacker_path=tuple(data["attacker_path"]),
        messages_sent=data["messages_sent"],
        aggregation_ratio=data["aggregation_ratio"],
        captured_source=data["captured_source"],
        source_pool=tuple(data["source_pool"]),
    )


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
class SweepCheckpoint:
    """Append-only per-seed result store for interruptible sweeps.

    One sweep maps to one ``sweep-<digest>.jsonl`` file under ``root``;
    the digest (:meth:`key_for`) covers the topology's content
    fingerprint and the experiment config with ``repeats``/``base_seed``
    canonicalised away — so a resumed sweep, a re-run after reboot, or
    a widened seed range all hit the same store, while any change that
    could alter a result (algorithm, parameters, noise, perturbations,
    kernel selection, schedule jitter) gets a fresh one.  Nothing
    machine- or git-dependent enters the key.

    Each line is ``{"check": digest, "result": {...}, "seed": s}``
    (:func:`encode_checkpoint_line`); appends go through the durable-IO
    seam (fsynced, torn-tail welding) and a torn or digest-mismatched
    line is skipped on load, so a crashed append — or silent corruption
    at rest — costs at most that one seed.  Float fields survive the
    JSON round trip exactly (shortest round-trip repr), which is what
    makes a resumed report bit-identical to an uninterrupted one.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    def key_for(self, topology, config) -> str:
        """The sweep's content digest (see the class docstring)."""
        # Telemetry is canonicalised away with repeats/base_seed: it
        # never affects results, so instrumented and plain sweeps must
        # share one store.
        canonical = replace(config, repeats=1, base_seed=0, telemetry=False)
        digest = sha256()
        digest.update(topology_fingerprint(topology).encode())
        digest.update(repr(topology.source if topology.has_source else None).encode())
        digest.update(repr(canonical).encode())
        digest.update(f"v{CHECKPOINT_VERSION}".encode())
        return digest.hexdigest()

    def path_for(self, key: str) -> Path:
        """The store file backing one sweep key."""
        return self._root / f"sweep-{key}.jsonl"

    def load(self, key: str) -> Dict[int, OperationalResult]:
        """Every completed seed on record for ``key``.

        Corrupt lines (a write torn by the interruption being resumed
        from) are skipped; a seed recorded twice keeps the last entry.
        """
        path = self.path_for(key)
        results: Dict[int, OperationalResult] = {}
        if not path.exists():
            return results
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                found, result = decode_checkpoint_line(line)
            except (ValueError, KeyError, TypeError):
                continue
            results[found] = result
        return results

    def append(self, key: str, seed: int, result: OperationalResult) -> None:
        """Record one completed seed through the durable-IO seam
        (:func:`~repro.storage.durable_append`: single-write append with
        torn-line welding, flushed and fsynced, so results survive
        whatever interrupts the sweep next — including the power).

        Raises :class:`~repro.errors.StorageError` if the disk fails
        the append; a seed whose result cannot be made durable must
        fail loudly, never report success.
        """
        line = encode_checkpoint_line(seed, result)
        plan = active_fault_plan()
        if plan is not None:
            line = plan.corrupt_checkpoint_line(seed, line)
        durable_append(self.path_for(key), line)

    def clear(self, key: str) -> None:
        """Drop the record of one sweep (``--checkpoint`` without
        ``--resume`` starts fresh)."""
        self.path_for(key).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Runtime kernel-divergence guard
# ----------------------------------------------------------------------
#: Seeds of each guarded sweep re-run on the legacy engines.
GUARD_SAMPLE = 3


def guard_sample(seeds: Sequence[int], sample: int, base_seed: int) -> Tuple[int, ...]:
    """A deterministic sample of a sweep's seeds to re-check: drawn
    from the sweep's shape, not wall-clock, so the same sweep always
    audits the same seeds."""
    k = min(sample, len(seeds))
    if k <= 0:
        return ()
    rng = random.Random(f"guard:{base_seed}:{len(seeds)}")
    return tuple(sorted(rng.sample(list(seeds), k)))


def _legacy_config(config):
    """``config`` pinned to the legacy engines (the reference the guard
    trusts), with the schedule cache bypassed so the probe cannot be
    fed a fast-kernel-built entry."""
    return replace(
        config,
        kernel="legacy",
        setup_kernel="legacy" if config.use_distributed else config.setup_kernel,
        use_schedule_cache=False,
    )


def write_reproducer_bundle(
    bundle_dir: Union[str, Path],
    topology,
    config,
    mismatches: Sequence[Tuple[int, OperationalResult, OperationalResult]],
) -> str:
    """Persist everything needed to replay a kernel divergence:
    topology fingerprint, config, and both engines' results per
    mismatched seed.  Returns the bundle path."""
    directory = Path(bundle_dir)
    directory.mkdir(parents=True, exist_ok=True)
    fingerprint = topology_fingerprint(topology)
    payload = {
        "topology": {
            "name": topology.name,
            "fingerprint": fingerprint,
            "nodes": topology.num_nodes,
        },
        "config": repr(config),
        "mismatches": [
            {
                "seed": seed,
                "fast": result_to_dict(fast),
                "legacy": result_to_dict(legacy),
            }
            for seed, fast, legacy in mismatches
        ],
    }
    path = directory / (
        f"divergence-{fingerprint[:12]}-seed{mismatches[0][0]}.json"
    )
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def apply_divergence_guard(
    runner,
    config,
    outcome,
    bundle_dir: Union[str, Path] = "divergence",
):
    """Re-run a sampled subset of ``outcome``'s seeds on the legacy
    engines and compare.

    A clean audit returns the outcome annotated with a
    :class:`GuardReport` (``degraded=False``).  A mismatch writes a
    reproducer bundle and re-runs the *whole* sweep on the legacy
    engines — degraded, slower, but never silently wrong — returning
    the legacy outcome annotated accordingly.  The degraded re-run goes
    back through ``runner.run``, so it keeps the supervised-execution
    guarantees.
    """
    from .runner import ExperimentRunner  # runner imports this module

    quarantined = {failure.seed for failure in outcome.failures}
    completed = [
        config.base_seed + i
        for i in range(config.repeats)
        if config.base_seed + i not in quarantined
    ]
    by_seed = dict(zip(completed, outcome.results))
    sampled = guard_sample(completed, GUARD_SAMPLE, config.base_seed)
    legacy_cfg = _legacy_config(config)
    probe = ExperimentRunner(runner.topology)
    mismatches: List[Tuple[int, OperationalResult, OperationalResult]] = []
    tracer = active_tracer()
    rerun_span = (
        tracer.begin("guard.rerun", sampled=list(sampled))
        if tracer is not None
        else None
    )
    try:
        for seed in sampled:
            reference = probe.run_once(legacy_cfg, seed)
            if reference != by_seed[seed]:
                mismatches.append((seed, by_seed[seed], reference))
    finally:
        if rerun_span is not None:
            tracer.end(rerun_span)
    registry = default_registry()
    registry.inc("guard.sampled", len(sampled))
    registry.inc("guard.mismatched", len(mismatches))
    if not mismatches:
        report = GuardReport(
            mode=GUARD_DIFFERENTIAL,
            sampled_seeds=sampled,
            mismatched_seeds=(),
            degraded=False,
        )
        return replace(outcome, guard=report)
    bundle_path = write_reproducer_bundle(
        bundle_dir, runner.topology, config, mismatches
    )
    degraded = runner.run(_legacy_config(config))
    report = GuardReport(
        mode=GUARD_DIFFERENTIAL,
        sampled_seeds=sampled,
        mismatched_seeds=tuple(seed for seed, _, _ in mismatches),
        degraded=True,
        bundle_path=bundle_path,
    )
    return replace(degraded, guard=report)
