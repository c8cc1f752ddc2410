"""The one retry schedule: exponential backoff with deterministic jitter.

Everything in the package that retries waits on a :class:`RetryPolicy`:
the shard board's :class:`~repro.experiments.resilience.Ladder` (a
shard whose run failed) and the service client's transport-retry loop
(a request that got no reply).  It needs only the record base, so a
client that must retry loads none of the sweep machinery.
"""

from __future__ import annotations

import random

from ..errors import invalid_field
from ..records import Record


class RetryPolicy(Record):
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
