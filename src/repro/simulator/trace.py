"""Run tracing: a structured log of everything a simulation did.

Metrics (message overhead, capture time, latency) are computed from the
trace rather than by instrumenting protocol code, keeping the protocols
clean and the accounting auditable.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from ..records import Record, factory

#: Well-known event kinds emitted by the library.
SEND = "send"
DELIVER = "deliver"
DROP = "drop"
COLLIDE = "collide"
ATTACKER_MOVE = "attacker-move"
ATTACKER_HEAR = "attacker-hear"
CAPTURE = "capture"
SLOT_ASSIGNED = "slot-assigned"
SLOT_CHANGED = "slot-changed"
PERIOD_START = "period-start"
PHASE = "phase"

#: The counting-only filter: no record of any kind is retained, only
#: per-kind totals.  The cheapest trace mode — experiment sweeps that
#: need nothing beyond counts should use this.
COUNTS_ONLY: frozenset = frozenset()


class TraceRecord(Record):
    """One trace entry: a timestamped event kind with free-form detail."""

    time: float
    kind: str
    detail: Dict[str, Any] = factory(dict)


class TraceRecorder:
    """Collects :class:`TraceRecord` entries during a run.

    Recording every radio delivery on a 441-node network is cheap in
    absolute terms but dominates runtime when thousands of runs are
    aggregated, so a ``kinds`` filter can restrict what is kept.  Counts
    are always maintained for every kind, even filtered ones, because the
    overhead metric only needs totals.

    Passing ``kinds=frozenset()`` (:data:`COUNTS_ONLY`) keeps counts and
    nothing else.  Hot emitters should consult :meth:`wants` once and
    call :meth:`bump` for unwanted kinds — that skips building both the
    detail dict and the :class:`TraceRecord`.
    """

    __slots__ = ("_kinds", "_records", "_counts")

    def __init__(self, kinds: Optional[frozenset] = None) -> None:
        self._kinds = kinds
        self._records: List[TraceRecord] = []
        self._counts: Dict[str, int] = {}

    def wants(self, kind: str) -> bool:
        """Whether records of ``kind`` are retained (counts always are)."""
        return self._kinds is None or kind in self._kinds

    def bump(self, kind: str) -> None:
        """Increment ``kind``'s count without constructing a record.

        Equivalent to :meth:`record` for a kind :meth:`wants` is false
        for, minus the per-call dict/record allocation.
        """
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1

    def bump_many(self, kind: str, n: int) -> None:
        """Add ``n`` to ``kind``'s count in one call.

        The operational fast lane accumulates its per-kind totals in
        local integers and flushes them here, instead of paying one
        :meth:`bump` per message; the resulting counts are identical.
        """
        if n:
            counts = self._counts
            counts[kind] = counts.get(kind, 0) + n

    def record(self, time: float, kind: str, **detail: Any) -> None:
        """Add an entry (subject to the kind filter) and bump its count."""
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if self._kinds is None or kind in self._kinds:
            self._records.append(TraceRecord(time=time, kind=kind, detail=detail))

    def count(self, kind: str) -> int:
        """Total occurrences of ``kind``, including filtered-out ones."""
        return self._counts.get(kind, 0)

    def counts(self) -> Dict[str, int]:
        """A copy of all per-kind totals."""
        return dict(self._counts)

    def publish_counts(self, registry) -> None:
        """Fold every per-kind total into a telemetry metrics registry
        as ``trace.<kind>`` counters.

        The recorder stays import-free of the telemetry package — any
        object with an ``inc(name, value)`` method works — so trace
        accounting carries no telemetry dependency when disabled.
        """
        inc = registry.inc
        for kind, total in self._counts.items():
            inc("trace." + kind, total)

    @property
    def records(self) -> List[TraceRecord]:
        """All retained records in chronological order."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def last(self, kind: str) -> Optional[TraceRecord]:
        """The most recent retained record of ``kind``, if any."""
        for record in reversed(self._records):
            if record.kind == kind:
                return record
        return None

    def clear(self) -> None:
        """Drop all records and counts."""
        self._records.clear()
        self._counts.clear()
