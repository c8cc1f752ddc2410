"""Generic repeated-measurement aggregation used by the benches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True)
class Summary:
    """Mean / spread summary of one measured quantity."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    def format(self, unit: str = "") -> str:
        """Human-readable one-liner, e.g. ``12.3 ± 1.2 s (n=30)``."""
        suffix = f" {unit}" if unit else ""
        return (
            f"{self.mean:.3g} ± {self.std:.2g}{suffix} "
            f"[{self.minimum:.3g}, {self.maximum:.3g}] (n={self.n})"
        )


def summarise(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` over a non-empty sample."""
    if not values:
        raise ConfigurationError("cannot summarise an empty sample")
    import numpy as np  # deferred: keeps numpy off the CLI start-up path

    arr = np.asarray(values, dtype=float)
    return Summary(
        n=len(arr),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
    )
