"""Message-overhead accounting.

The paper's closing claim (§I, §VII): the SLP-aware DAS costs
"negligible message overhead" over protectionless DAS.  The overhead
has two components:

* *setup overhead* — the extra SEARCH/CHANGE messages plus the update
  disseminations of Phase 3 (a few tens of messages against the
  thousands Phase 1 sends);
* *runtime overhead* — none by construction: both algorithms transmit
  exactly one message per node per period.
"""

from __future__ import annotations


from ..errors import ConfigurationError
from ..records import Record


class MessageOverhead(Record):
    """Setup message counts of a protectionless/SLP pair.

    Attributes
    ----------
    baseline_messages:
        Broadcasts the protectionless setup sent.
    slp_messages:
        Broadcasts the full 3-phase setup sent.
    search_messages, change_messages:
        The Phase 2 / Phase 3 wire messages within ``slp_messages``.
    """

    baseline_messages: int
    slp_messages: int
    search_messages: int = 0
    change_messages: int = 0

    def __post_init__(self) -> None:
        if self.baseline_messages < 0 or self.slp_messages < 0:
            raise ConfigurationError("message counts cannot be negative")

    @property
    def extra_messages(self) -> int:
        """Absolute setup overhead of SLP DAS."""
        return self.slp_messages - self.baseline_messages

    @property
    def overhead_factor(self) -> float:
        """``slp / baseline`` — 1.0x means free, the paper's claim is
        "negligible", i.e. a factor close to 1."""
        if self.baseline_messages == 0:
            return float("inf") if self.slp_messages else 1.0
        return self.slp_messages / self.baseline_messages

    @property
    def overhead_percent(self) -> float:
        """Relative overhead in percent."""
        return (self.overhead_factor - 1.0) * 100.0

    def summary(self) -> str:
        """One-line report used by the CLI and the overhead benchmark."""
        return (
            f"baseline={self.baseline_messages} msgs, "
            f"slp={self.slp_messages} msgs "
            f"(+{self.extra_messages}, {self.overhead_percent:+.1f}%; "
            f"search={self.search_messages}, change={self.change_messages})"
        )
