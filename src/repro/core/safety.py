"""Capture time and safety period (Definition 4 and §VI-B).

The paper bounds how long an SLP protocol must protect the source:

* *capture time*  ``C = period_length × (Δss + 1)`` — the time a perfect
  attacker needs when it gains one hop per TDMA period starting at the
  sink (Δss = source–sink hop distance, plus one period for the first
  message to reach the attacker);
* *safety period* ``δ = Cs × C`` with ``1 < Cs < 2`` (Eq. 1); the
  evaluation uses ``Cs = 1.5``;
* a simulation *upper time bound* ``num_nodes × source_period × 4`` to
  keep runs finite.

The verifier (Algorithm 1) counts attacker progress in whole periods, so
period-denominated forms are provided alongside the wall-clock ones.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import ConfigurationError
from ..records import Record
from ..topology import Topology

#: Safety period factor used throughout the paper's evaluation (§VI-B).
PAPER_SAFETY_FACTOR = 1.5

#: Multiplier of the paper's simulation upper time bound (§VI-B).
PAPER_TIME_BOUND_FACTOR = 4


class SafetyPeriod(Record):
    """A safety period in both wall-clock seconds and whole TDMA periods.

    Attributes
    ----------
    seconds:
        ``Cs × period_length × (Δss + 1)`` — wall-clock form (Eq. 1).
    periods:
        ``⌈Cs × (Δss + 1)⌉`` — the number of TDMA periods the attacker
        may use; this is the budget :func:`~repro.verification.verify_schedule`
        and the runtime simulation enforce.
    factor:
        The ``Cs`` used.
    capture_time_seconds:
        The protectionless capture time ``C`` the factor was applied to.
    """

    seconds: float
    periods: int
    factor: float
    capture_time_seconds: float


def _resolve_distance(topology: Topology, distance: Optional[int]) -> int:
    if distance is None:
        return topology.source_sink_distance()
    if distance < 1:
        raise ConfigurationError(
            f"safety_period.distance={distance!r}: "
            "the source–sink distance must be at least one hop"
        )
    return distance


def capture_time_seconds(
    topology: Topology, period_length: float, distance: Optional[int] = None
) -> float:
    """Return ``C = period_length × (Δss + 1)`` (§VI-B).

    ``distance`` overrides ``Δss`` (multi-source scenarios budget
    against the closest source in the pool).
    """
    if period_length <= 0:
        raise ConfigurationError("period length must be positive")
    return period_length * (_resolve_distance(topology, distance) + 1)


def capture_time_periods(topology: Topology, distance: Optional[int] = None) -> int:
    """Return the capture time expressed in whole TDMA periods: ``Δss + 1``."""
    return _resolve_distance(topology, distance) + 1


def safety_period(
    topology: Topology,
    period_length: float,
    factor: float = PAPER_SAFETY_FACTOR,
    distance: Optional[int] = None,
) -> SafetyPeriod:
    """Compute the safety period per Eq. 1 with the paper's ``Cs = 1.5``.

    ``factor`` must satisfy ``1 < Cs < 2`` as the paper stipulates;
    values outside that interval are rejected so experiments cannot
    silently weaken the privacy target.  ``distance`` overrides the
    topology's designated source–sink distance — scenario workloads
    with several sources pass the smallest pool distance, yielding the
    most conservative budget.
    """
    if not 1.0 < factor < 2.0:
        raise ConfigurationError(
            f"safety factor Cs must satisfy 1 < Cs < 2 (Eq. 1), got {factor}"
        )
    c_seconds = capture_time_seconds(topology, period_length, distance=distance)
    c_periods = capture_time_periods(topology, distance=distance)
    return SafetyPeriod(
        seconds=factor * c_seconds,
        periods=math.ceil(factor * c_periods),
        factor=factor,
        capture_time_seconds=c_seconds,
    )


def simulation_time_bound(
    num_nodes: int,
    source_period: float,
    factor: int = PAPER_TIME_BOUND_FACTOR,
) -> float:
    """Upper bound on simulated time: ``num_nodes × source_period × factor``.

    §VI-B: "To bound simulation time, an upper time bound of
    number of nodes × source period × 4 is used."
    """
    if num_nodes < 1:
        raise ConfigurationError("number of nodes must be positive")
    if source_period <= 0:
        raise ConfigurationError("source period must be positive")
    if factor < 1:
        raise ConfigurationError("time bound factor must be at least 1")
    return num_nodes * source_period * factor
