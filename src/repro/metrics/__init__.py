"""Evaluation metrics: capture ratio (Figure 5), message overhead
(§VII's "negligible overhead" claim) and convergecast quality guards."""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "capture": (
        "CaptureStats",
        "FirstCaptureStats",
        "PerSourceCapture",
        "capture_stats",
        "first_capture_stats",
        "per_source_capture_stats",
    ),
    "latency": (
        "AggregationStats",
        "aggregation_stats",
    ),
    "overhead": (
        "MessageOverhead",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
