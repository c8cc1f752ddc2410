"""Unified telemetry: spans, metrics registry, live progress, export.

See DESIGN.md "Observability" for the span taxonomy, registry naming
convention, and export formats.  The cardinal rule of this package:
with no active session, instrumented code paths are no-ops that never
touch the RNG stream or the clock, and telemetry-off runs stay
byte-identical to uninstrumented builds.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "progress": (
        "ProgressReporter",
    ),
    "registry": (
        "MetricsRegistry",
        "default_registry",
        "use_registry",
    ),
    "session": (
        "TelemetrySession",
        "absorb_worker_payload",
    ),
    "spans": (
        "DEFAULT_MAX_SPANS",
        "Span",
        "SpanTracer",
        "active_tracer",
        "chrome_trace",
        "spans_jsonl",
        "tracing",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
