"""Unified telemetry: spans, metrics registry, live progress, export.

See DESIGN.md "Observability" for the span taxonomy, registry naming
convention, and export formats.  The cardinal rule of this package:
with no active session, instrumented code paths are no-ops that never
touch the RNG stream or the clock, and telemetry-off runs stay
byte-identical to uninstrumented builds.
"""

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spans import SpanTracer

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
        "chrome_trace",
        "spans_jsonl",
    ),
}

_lazy_names, __getattr__, _lazy_dir = _lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_lazy_names + ["active_tracer", "tracing"])


def __dir__():
    return sorted(set(_lazy_dir()) | {"active_tracer", "tracing"})


# One active tracer per process; ``None`` means telemetry is off and
# every instrumented site short-circuits on the ``is not None`` guard.
# It lives in the package root so instrumented code reads it without
# loading the tracer itself.
_ACTIVE: Optional["SpanTracer"] = None


def active_tracer() -> Optional["SpanTracer"]:
    return _ACTIVE


@contextmanager
def tracing(tracer: "SpanTracer") -> Iterator["SpanTracer"]:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
