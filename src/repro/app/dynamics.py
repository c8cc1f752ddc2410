"""Workload dynamics for the operational phase.

The paper's evaluation runs one static source against a fixed network.
The machinery it builds — the parameterised attacker, the DAS/SLP
schedules, the safety period — is more general than that, and the
scenario subsystem exercises the generality.  This module holds the
*runtime* vocabulary scenarios lower onto:

* :class:`SourcePlan` — which nodes hold the asset: one node (the
  paper), several simultaneously, or a pool the asset rotates through
  (a mobile source).
* :class:`SourceTracker` — the runtime view of a plan the engines
  advance at period boundaries.

Mid-run perturbations (crashed nodes, sleeps, duty cycles) live in
:mod:`repro.app.perturbations`, which only runs that declare some load.
A plan is a frozen, picklable value object: scenario sweeps ship it to
worker processes, and the determinism contract of the parallel engine
requires that a worker sees exactly what the parent built.  All timing
is expressed in whole TDMA periods — rotations apply at period
boundaries, before any event of the period fires, so outcomes never
depend on sub-period event ordering.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import invalid_field
from ..records import Record
from ..topology import NodeId

class SourcePlan(Record):
    """Which nodes hold the asset, and how that changes over time.

    Attributes
    ----------
    nodes:
        The source pool.  With one node this is exactly the paper's
        static source.
    rotation_period:
        ``None`` (default) makes every pool node a *simultaneous*
        source for the whole run: the attacker captures by occupying
        any of them.  A positive value makes the asset *mobile*: only
        one pool node is active at a time, and the active source
        advances through ``nodes`` (in the given order, wrapping) every
        ``rotation_period`` TDMA periods.  If the asset rotates onto
        the attacker's current position, that is a capture too.
    """

    nodes: Tuple[NodeId, ...]
    rotation_period: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise invalid_field(
                "SourcePlan", "nodes", self.nodes, "needs at least one source node"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise invalid_field(
                "SourcePlan", "nodes", self.nodes, "contains duplicate source nodes"
            )
        if self.rotation_period is not None:
            if self.rotation_period < 1:
                raise invalid_field(
                    "SourcePlan",
                    "rotation_period",
                    self.rotation_period,
                    "must be at least one period",
                )
            if len(self.nodes) < 2:
                raise invalid_field(
                    "SourcePlan",
                    "nodes",
                    self.nodes,
                    "a rotating (mobile) source needs at least two pool nodes",
                )

    @property
    def primary(self) -> NodeId:
        """The first pool node — the source SLP schedule building protects."""
        return self.nodes[0]

    def active_at(self, period: int) -> Tuple[NodeId, ...]:
        """The nodes holding the asset during TDMA period ``period``."""
        if self.rotation_period is None:
            return self.nodes
        index = (period // self.rotation_period) % len(self.nodes)
        return (self.nodes[index],)

    @staticmethod
    def single(node: NodeId) -> "SourcePlan":
        """The paper's workload: one static source."""
        return SourcePlan(nodes=(node,))


class SourceTracker:
    """Mutable runtime view of a :class:`SourcePlan`.

    The operational harness advances the tracker at each period
    boundary; the attacker's capture test and the per-source metrics
    read the currently active set from it.
    """

    def __init__(self, plan: SourcePlan) -> None:
        self._plan = plan
        self._active = frozenset(plan.active_at(0))

    @property
    def plan(self) -> SourcePlan:
        """The declarative plan being tracked."""
        return self._plan

    @property
    def active(self) -> frozenset:
        """The nodes currently holding the asset."""
        return self._active

    def advance(self, period: int) -> frozenset:
        """Move to ``period`` and return the newly active source set."""
        self._active = frozenset(self._plan.active_at(period))
        return self._active

    def is_source(self, node: NodeId) -> bool:
        """Whether ``node`` currently holds the asset."""
        return node in self._active
