"""The named-scenario registry.

Scenarios are registered under kebab-case names so the CLI, the
benchmark suite and the tests all speak the same vocabulary::

    repro-slp-das scenario run two-sources --seeds 20 --workers 2

The built-in gallery spans the axes the paper's machinery
parameterises but its evaluation never sweeps: the attacker spectrum
of ``examples/attacker_gallery.py`` promoted to named workloads,
multiple simultaneous sources, a mobile source rotating through the
grid corners, and network churn (node death waves, duty-cycled
regions).  ``paper-baseline`` is the anchor: it is exactly the
paper's Figure 5 cell (11×11, protectionless, (1,0,1,s0,first-heard),
casino noise) and reproduces :class:`~repro.experiments.ExperimentRunner`
results bit-for-bit, which the test suite enforces.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List

from ..attacker import AttackerSpec, AvoidRecentlyVisited, FollowAnyHeard
from ..errors import invalid_field
from ..experiments import SLP
from .spec import ScenarioSpec, TopologySpec

_REGISTRY: Dict[str, ScenarioSpec] = {}

#: Built-in scenarios built on first lookup: name -> builder.  Their
#: specs need the perturbation classes, which a run of any other
#: scenario never loads.
_DEFERRED: Dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry under ``spec.name``.

    Re-registering an existing name requires ``replace=True`` so a typo
    cannot silently shadow a built-in.
    """
    if (spec.name in _REGISTRY or spec.name in _DEFERRED) and not replace:
        raise invalid_field(
            "register_scenario",
            "name",
            spec.name,
            "already registered; pass replace=True to overwrite",
        )
    _DEFERRED.pop(spec.name, None)
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name."""
    if name in _DEFERRED:
        _REGISTRY[name] = _DEFERRED.pop(name)()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise invalid_field(
            "get_scenario",
            "name",
            name,
            f"unknown scenario; registered: {scenario_names()}",
        ) from None


def scenario_names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY.keys() | _DEFERRED.keys())


def iter_scenarios() -> Iterator[ScenarioSpec]:
    """All registered scenarios in name order."""
    for name in scenario_names():
        yield get_scenario(name)


# ----------------------------------------------------------------------
# Built-in gallery
# ----------------------------------------------------------------------

_GRID11 = TopologySpec(family="grid", size=11)

register_scenario(
    ScenarioSpec(
        name="paper-baseline",
        topology=_GRID11,
        description="The paper's Figure 5 cell: one static source, "
        "(1,0,1,s0,first-heard) attacker, protectionless DAS.",
    )
)

register_scenario(
    ScenarioSpec(
        name="paper-baseline-slp",
        topology=_GRID11,
        algorithm=SLP,
        description="The paper's SLP DAS cell at search distance 3 "
        "against the same attacker.",
    )
)

register_scenario(
    ScenarioSpec(
        name="two-sources",
        topology=_GRID11,
        sources=("top-left", "top-right"),
        description="Two simultaneous static sources in opposite "
        "corners; capturing either ends the run.",
    )
)

register_scenario(
    ScenarioSpec(
        name="two-sources-slp",
        topology=_GRID11,
        algorithm=SLP,
        sources=("top-left", "top-right"),
        description="Two simultaneous sources with the SLP refinement "
        "protecting the primary (top-left) one.",
    )
)

register_scenario(
    ScenarioSpec(
        name="mobile-source",
        topology=_GRID11,
        sources=("top-left", "top-right", "bottom-right", "bottom-left"),
        source_rotation_period=2,
        description="A mobile source rotating through the four corners "
        "every two periods; rotating onto the attacker is a capture.",
    )
)

register_scenario(
    ScenarioSpec(
        name="strong-attacker",
        topology=_GRID11,
        attacker=AttackerSpec(2, 0, 2, FollowAnyHeard()),
        description="The gallery's (2,0,2,s0,any-heard) attacker: hears "
        "two messages and may move twice per period.",
    )
)

register_scenario(
    ScenarioSpec(
        name="patient-attacker",
        topology=_GRID11,
        attacker=AttackerSpec(3, 0, 2, FollowAnyHeard()),
        description="The gallery's (3,0,2,s0,any-heard) attacker: wide "
        "hearing before each of up to two moves.",
    )
)

register_scenario(
    ScenarioSpec(
        name="cautious-attacker",
        topology=_GRID11,
        attacker=AttackerSpec(1, 2, 1, AvoidRecentlyVisited()),
        description="The gallery's (1,2,1,s0,avoid-recent) attacker: "
        "first-heard with two locations of anti-oscillation memory.",
    )
)


def _churn_10pct() -> ScenarioSpec:
    from ..app.perturbations import NodeDeath

    # ~10% of the 11×11 grid crashing in three waves: every tenth node,
    # skipping the source (0) and steering clear of the sink (60).
    waves = (
        NodeDeath(period=2, nodes=(7, 17, 27, 37)),
        NodeDeath(period=4, nodes=(47, 57, 67, 77)),
        NodeDeath(period=6, nodes=(87, 97, 107, 117)),
    )
    return ScenarioSpec(
        name="churn-10pct",
        topology=_GRID11,
        perturbations=waves,
        description="~10% of the grid crashes in three waves (periods "
        "2, 4, 6) while the attacker hunts the static source.",
    )


def _duty_cycle() -> ScenarioSpec:
    from ..app.perturbations import DutyCycle

    # Rows 2–3 of the grid duty cycling: asleep 2 of every 5 periods.
    band = DutyCycle(nodes=tuple(range(22, 44)), cycle_length=5, sleep_for=2, offset=1)
    return ScenarioSpec(
        name="duty-cycle",
        topology=_GRID11,
        perturbations=(band,),
        description="Rows 2-3 duty cycle (asleep 2 of every 5 periods), "
        "thinning the traffic the attacker steers by.",
    )


_DEFERRED["churn-10pct"] = _churn_10pct
_DEFERRED["duty-cycle"] = _duty_cycle
