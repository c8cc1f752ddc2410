"""Telemetry session lifecycle and export.

A :class:`TelemetrySession` is the one switch that turns telemetry
on: entering it installs an active :class:`SpanTracer` and a fresh
session-scoped :class:`MetricsRegistry` as the process defaults, and
opens a root span covering everything until exit (which is what keeps
span coverage of wall time near 100%).  Exiting closes the root span,
folds ambient stats (schedule cache, span-buffer health) into the
registry, restores the previous defaults, and — when a directory was
given — writes three artifacts:

``spans.jsonl``
    one JSON object per recorded span, in recording order;
``trace.json``
    Chrome trace-event JSON, loadable in Perfetto, pool workers as
    separate process tracks;
``metrics.json``
    the registry ``snapshot()``.

Pool workers record nothing into the session object they inherit:
``ExperimentConfig`` carries a ``telemetry`` flag (stamped
automatically while a session is active) and each worker instruments
every shard it runs with a private tracer + registry, shipping both
back with the shard's ``done`` report; the pool hands the payload to
:func:`absorb_worker_payload`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import StorageError
from ..storage import atomic_write_text
from . import active_tracer, tracing
from .registry import MetricsRegistry, default_registry, use_registry
from .spans import SpanTracer, chrome_trace, spans_jsonl

__all__ = [
    "TelemetrySession",
    "absorb_worker_payload",
]

_ACTIVE_SESSION: Optional["TelemetrySession"] = None


def absorb_worker_payload(payload: Dict[str, Any]) -> None:
    """Merge a worker shard's telemetry payload into the parent's
    tracer and registry.  No-op when telemetry is inactive (a stale
    payload can arrive if a session ends mid-harvest)."""
    tracer = active_tracer()
    if tracer is not None and payload.get("spans"):
        tracer.absorb(payload)
    metrics = payload.get("metrics")
    if metrics:
        default_registry().merge(metrics)


class TelemetrySession:
    """Context manager scoping one instrumented command or sweep."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        label: str = "telemetry",
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.label = label
        self.tracer = SpanTracer()
        self.registry = MetricsRegistry()
        self._root = None
        self._tracing_ctx = None
        self._registry_ctx = None

    def __enter__(self) -> "TelemetrySession":
        global _ACTIVE_SESSION
        if _ACTIVE_SESSION is not None:
            raise RuntimeError("a telemetry session is already active")
        self._registry_ctx = use_registry(self.registry)
        self._registry_ctx.__enter__()
        self._tracing_ctx = tracing(self.tracer)
        self._tracing_ctx.__enter__()
        self._root = self.tracer.begin(self.label)
        _ACTIVE_SESSION = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_SESSION
        # Instrumented sites close their spans in ``finally`` blocks,
        # so by the time an exception unwinds to here only the root
        # (plus anything a buggy site leaked) can still be open.
        while self.tracer.open_spans > 1:
            self.tracer.end(self.tracer._stack[-1])
        if self._root is not None:
            self.tracer.end(self._root)
            self._root = None
        _ACTIVE_SESSION = None
        self._tracing_ctx.__exit__(None, None, None)
        self._registry_ctx.__exit__(None, None, None)
        if self.directory is not None and exc_type is None:
            # Telemetry is an observer: a full or read-only telemetry
            # target must never cost the run its (already computed)
            # results, so export failure is a warning, not an error.
            try:
                self.export(self.directory)
            except (StorageError, OSError) as exc:
                print(
                    f"warning: telemetry export to {self.directory} "
                    f"failed ({exc}); results are unaffected",
                    file=sys.stderr,
                )

    # -- export ----------------------------------------------------

    def collect(self) -> None:
        """Fold ambient stats into the registry before export."""
        from ..experiments.schedule_cache import default_cache_stats

        for name, value in default_cache_stats().items():
            self.registry.gauge(f"cache.{name}", value)
        self.registry.gauge("spans.recorded", len(self.tracer))
        self.registry.gauge("spans.dropped", self.tracer.dropped)

    def export(self, directory: Union[str, Path]) -> Path:
        """Write ``spans.jsonl``, ``trace.json``, ``metrics.json``.

        Each artifact goes through the atomic-write seam, so a crash
        (or a full disk) mid-export never leaves a truncated trace —
        the file is either absent or complete.  Failures raise
        :class:`~repro.errors.StorageError`; the ``__exit__`` path
        downgrades that to a warning.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        self.collect()
        atomic_write_text(target / "spans.jsonl", spans_jsonl(self.tracer))
        atomic_write_text(
            target / "trace.json",
            json.dumps(chrome_trace(self.tracer, label=self.label)) + "\n",
        )
        atomic_write_text(
            target / "metrics.json",
            json.dumps(self.registry.snapshot(), indent=2, sort_keys=True)
            + "\n",
        )
        return target
