"""Schedule analysis: the slot-gradient geometry behind the privacy
results (descent paths, basins, refinement footprints)."""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "gradient": (
        "GradientField",
        "descent_path",
        "gradient_field",
        "gradient_successor",
        "predicts_capture",
        "refinement_footprint",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
