"""Nested timed spans with a strict zero-cost path when disabled.

The tracer is deliberately tiny: ``begin``/``end`` push and pop a
stack, ``instant`` records a point event, and everything lands in a
bounded in-memory list (overflow increments ``dropped`` instead of
growing without bound).  Instrumented call sites fetch the process's
active tracer once (``tracer = active_tracer()``, from the package
root) and guard every record with ``if tracer is not None`` — with
telemetry off the hot path pays one module-global read per function
and one ``is not None`` check per loop, and never touches the RNG
stream or the clock.

Timestamps are ``time.perf_counter()`` deltas from the tracer's
creation; each tracer also records a ``time.time()`` anchor (`wall0`)
so spans recorded by a pool worker's private tracer can be shifted
onto the parent's timeline when the payload ships back with the
worker's shard (``export_payload``/``absorb``).

Two export formats: JSONL (one span object per line) and Chrome
trace-event JSON, loadable in Perfetto / chrome://tracing, with each
process as its own track.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "DEFAULT_MAX_SPANS",
    "Span",
    "SpanTracer",
    "spans_jsonl",
    "chrome_trace",
]

DEFAULT_MAX_SPANS = 200_000


class Span:
    """One timed interval (or point event when ``end == start``)."""

    __slots__ = ("name", "start", "end", "pid", "depth", "attrs")

    def __init__(
        self,
        name: str,
        start: float,
        pid: int,
        depth: int,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.pid = pid
        self.depth = depth
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "start": round(self.start, 9),
            "end": None if self.end is None else round(self.end, 9),
            "pid": self.pid,
            "depth": self.depth,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class SpanTracer:
    """Bounded recorder of nested spans for one process."""

    def __init__(
        self, max_spans: int = DEFAULT_MAX_SPANS, pid: Optional[int] = None
    ) -> None:
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._max_spans = max_spans
        self.dropped = 0
        self.pid = os.getpid() if pid is None else pid
        # Wall-clock anchor pairs with the perf_counter origin: spans
        # are timestamped relative to the origin, and worker payloads
        # are shifted by the difference of the two anchors on absorb.
        self.wall0 = time.time()
        self._origin = time.perf_counter()

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def spans(self) -> List[Span]:
        return list(self._spans)

    def begin(self, name: str, **attrs: Any) -> Span:
        span = Span(
            name,
            time.perf_counter() - self._origin,
            self.pid,
            len(self._stack),
            attrs or None,
        )
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span"
            )
        self._stack.pop()
        span.end = time.perf_counter() - self._origin
        self._keep(span)

    def instant(self, name: str, **attrs: Any) -> Span:
        now = time.perf_counter() - self._origin
        span = Span(name, now, self.pid, len(self._stack), attrs or None)
        span.end = now
        self._keep(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        handle = self.begin(name, **attrs)
        try:
            yield handle
        finally:
            self.end(handle)

    def _keep(self, span: Span) -> None:
        if len(self._spans) < self._max_spans:
            self._spans.append(span)
        else:
            self.dropped += 1

    # -- cross-process payloads ------------------------------------

    def export_payload(self) -> Dict[str, Any]:
        """Compact picklable form of all closed spans, for shipping
        back to the parent with a worker's shard."""
        return {
            "pid": self.pid,
            "wall0": self.wall0,
            "dropped": self.dropped,
            "spans": [
                [s.name, s.start, s.end, s.depth, s.attrs]
                for s in self._spans
                if s.end is not None
            ],
        }

    def absorb(self, payload: Dict[str, Any]) -> None:
        """Merge a worker's ``export_payload`` onto this timeline.

        The shift between the two wall-clock anchors aligns the
        worker's track with the parent's; sub-millisecond skew between
        the clocks is acceptable for visualisation.
        """
        shift = payload["wall0"] - self.wall0
        pid = payload["pid"]
        for name, start, end, depth, attrs in payload["spans"]:
            span = Span(name, start + shift, pid, depth, attrs)
            span.end = end + shift
            self._keep(span)
        self.dropped += payload.get("dropped", 0)


# -- export formats ------------------------------------------------


def spans_jsonl(tracer: SpanTracer) -> str:
    """One JSON object per line, in recording order."""
    lines = [json.dumps(span.to_dict(), sort_keys=True) for span in tracer.spans()]
    return "\n".join(lines) + ("\n" if lines else "")


def chrome_trace(tracer: SpanTracer, label: str = "repro") -> Dict[str, Any]:
    """Chrome trace-event JSON (Perfetto-loadable).

    Closed spans become complete (``ph: "X"``) events, zero-duration
    spans become thread-scoped instants (``ph: "i"``), and each pid
    gets a ``process_name`` metadata event so pool workers show up as
    their own tracks.
    """
    events: List[Dict[str, Any]] = []
    pids = sorted({span.pid for span in tracer.spans()})
    for pid in pids:
        name = label if pid == tracer.pid else f"{label} worker"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{name} (pid {pid})"},
            }
        )
    for span in tracer.spans():
        if span.end is None:
            continue
        ts = round(span.start * 1e6, 3)
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "pid": span.pid,
            "tid": 0,
            "ts": ts,
        }
        if span.attrs:
            event["args"] = span.attrs
        if span.end == span.start:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = round((span.end - span.start) * 1e6, 3)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
