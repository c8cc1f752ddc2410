"""TDMA frame arithmetic.

A TDMA *period* (Table I) consists of a dissemination window of length
``Pdiss`` followed by ``slots`` transmission slots of length ``Pslot``
each.  With the paper's defaults (``Pdiss = 0.5 s``, ``slots = 100``,
``Pslot = 0.05 s``) a period lasts 5.5 s — exactly the source period
``Psrc``, so the source generates one message per period.

:class:`TdmaFrame` is pure arithmetic: given the three parameters it
answers "when does slot ``k`` of period ``p`` start?".  All protocol
timing is derived from it, so the frame structure lives in exactly one
place.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, invalid_field


@dataclass(frozen=True)
class TdmaFrame:
    """Immutable TDMA frame geometry.

    Attributes
    ----------
    num_slots:
        Number of transmission slots per period (Table I ``slots``).
    slot_duration:
        Length of one slot in seconds (Table I ``Pslot``).
    dissemination_duration:
        Length of the dissemination window opening each period
        (Table I ``Pdiss``).
    """

    num_slots: int = 100
    slot_duration: float = 0.05
    dissemination_duration: float = 0.5

    def __post_init__(self) -> None:
        if self.num_slots < 1:
            raise invalid_field(
                "TdmaFrame", "num_slots", self.num_slots,
                "a TDMA frame needs at least one slot",
            )
        if self.slot_duration <= 0:
            raise invalid_field(
                "TdmaFrame", "slot_duration", self.slot_duration,
                "slot duration must be positive",
            )
        if self.dissemination_duration < 0:
            raise invalid_field(
                "TdmaFrame", "dissemination_duration", self.dissemination_duration,
                "dissemination duration cannot be negative",
            )

    # ------------------------------------------------------------------
    # Durations
    # ------------------------------------------------------------------
    @property
    def period_length(self) -> float:
        """Total period duration: ``Pdiss + slots × Pslot``."""
        return self.dissemination_duration + self.num_slots * self.slot_duration

    # ------------------------------------------------------------------
    # Forward mapping: (period, slot) → time
    # ------------------------------------------------------------------
    def period_start(self, period: int) -> float:
        """Start time of period ``period`` (periods count from 0)."""
        if period < 0:
            raise ConfigurationError("period index cannot be negative")
        return period * self.period_length

    def slot_start(self, period: int, slot: int) -> float:
        """Start time of slot ``slot`` (1-based) within ``period``."""
        if not 1 <= slot <= self.num_slots:
            raise ConfigurationError(
                f"slot {slot} outside frame of {self.num_slots} slots"
            )
        return (
            self.period_start(period)
            + self.dissemination_duration
            + (slot - 1) * self.slot_duration
        )

    def fits(self, slot: int) -> bool:
        """Whether ``slot`` lies within this frame."""
        return 1 <= slot <= self.num_slots
