"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, self-contained description of one
evaluation workload: a topology family and size, where the asset lives
(one source, several simultaneous sources, or a mobile source rotating
through a pool), the attacker from the ``(R, H, M, s0, D)`` spectrum,
the noise regime, and any mid-run perturbations.  Specs carry no
topology objects — source placements are symbolic (``"top-left"``,
``"centre"``, or a concrete node id) and resolved when the spec is
*lowered* onto the experiment engine — so a spec is cheap to build,
hashable, picklable and printable.

Lowering is two calls: :meth:`ScenarioSpec.build_topology` constructs
the network (designating the primary source so SLP schedule building
protects it), and :meth:`ScenarioSpec.to_config` produces the
:class:`~repro.experiments.ExperimentConfig` the serial and parallel
runners already know how to sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..attacker import (
    AttackerSpec,
    AvoidRecentlyVisited,
    FollowAnyHeard,
    FollowFirstHeard,
    paper_attacker,
)
from ..errors import ConfigurationError, invalid_field
from ..experiments import ALGORITHMS, PROTECTIONLESS, ExperimentConfig
from ..app import DutyCycle, NodeDeath, NodeSleep, Perturbation, SourcePlan
from ..topology import GridTopology, LineTopology, NodeId, RingTopology, Topology

#: Topology families a scenario may request.
TOPOLOGY_FAMILIES = ("grid", "line", "ring")

#: Noise regimes a scenario may request (the ExperimentConfig spellings).
NOISE_REGIMES = ("casino", "ideal")

#: A source placement: a concrete node id or a symbolic position.
Placement = Union[int, str]


@dataclass(frozen=True)
class TopologySpec:
    """A topology family plus size, buildable without further input.

    Attributes
    ----------
    family:
        ``"grid"`` (the paper's layout: sink at the centre),
        ``"line"`` (sink at the far end) or ``"ring"`` (sink at node 0).
    size:
        Side length for grids, node count for lines and rings.
    """

    family: str = "grid"
    size: int = 11

    def __post_init__(self) -> None:
        if self.family not in TOPOLOGY_FAMILIES:
            raise invalid_field(
                "TopologySpec",
                "family",
                self.family,
                f"pick one of {TOPOLOGY_FAMILIES}",
            )
        minimum = 2 if self.family == "grid" else 3
        if self.size < minimum:
            raise invalid_field(
                "TopologySpec",
                "size",
                self.size,
                f"a {self.family} topology needs size >= {minimum}",
            )

    @property
    def num_nodes(self) -> int:
        """Node count of the topology this spec builds."""
        return self.size * self.size if self.family == "grid" else self.size

    @property
    def sink_node(self) -> NodeId:
        """The sink the built topology will designate.

        Mirrors each family's placement rule (grid: centre; line: far
        end; ring: node 0) so specs can be validated against the sink
        without building the topology.
        """
        if self.family == "grid":
            return (self.size // 2) * self.size + (self.size // 2)
        if self.family == "line":
            return self.size - 1
        return 0

    def build(self, source: Optional[NodeId] = None) -> Topology:
        """Construct the topology, optionally designating ``source``."""
        if self.family == "grid":
            return GridTopology(self.size, source=source)
        if self.family == "line":
            built: Topology = LineTopology(self.size)
        else:
            built = RingTopology(self.size)
        if source is not None and source != built.source:
            built = built.with_source(source)
        return built

    def resolve_placement(self, placement: Placement) -> NodeId:
        """Turn a symbolic or numeric placement into a node id.

        Numeric placements are validated against the node count.
        Symbolic placements: every family understands ``"centre"``;
        grids additionally understand the four corners
        (``"top-left"``, ``"top-right"``, ``"bottom-left"``,
        ``"bottom-right"``).
        """
        if isinstance(placement, int):
            if not 0 <= placement < self.num_nodes:
                raise invalid_field(
                    "ScenarioSpec",
                    "sources",
                    placement,
                    f"node id out of range for a {self.family} of "
                    f"{self.num_nodes} nodes",
                )
            return placement
        if self.family == "grid":
            n = self.size
            symbols = {
                "top-left": 0,
                "top-right": n - 1,
                "bottom-left": n * (n - 1),
                "bottom-right": n * n - 1,
                "centre": (n // 2) * n + (n // 2),
            }
        else:
            symbols = {"centre": self.num_nodes // 2}
        try:
            return symbols[placement]
        except KeyError:
            raise invalid_field(
                "ScenarioSpec",
                "sources",
                placement,
                f"unknown placement for family {self.family!r}; "
                f"pick one of {tuple(sorted(symbols))} or a node id",
            ) from None


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative evaluation workload.

    Attributes
    ----------
    name:
        Registry key, kebab-case by convention.
    topology:
        The network family and size.
    description:
        One human-readable line for ``repro scenario list``.
    algorithm:
        ``"protectionless"`` or ``"slp"`` — which schedule defends.
    search_distance:
        ``SD`` for the SLP algorithm (ignored for protectionless).
    attacker:
        The ``(R, H, M, s0, D)`` parameters; ``None`` = the paper's.
    noise:
        ``"casino"`` (the paper's noise) or ``"ideal"``.
    sources:
        Source placements (symbolic or node ids).  One placement is
        the paper's workload; several are simultaneous sources unless
        ``source_rotation_period`` makes the pool a mobile source.
        The first placement is the *primary* source the SLP refinement
        protects.
    source_rotation_period:
        ``None`` = all sources broadcast-relevant simultaneously; a
        positive value rotates the asset through ``sources`` every
        that many periods (a mobile source).
    perturbations:
        Node deaths, sleeps and duty cycles applied each run.
    repeats:
        Default sweep width (CLI ``--seeds`` overrides).
    base_seed:
        Seed of the first run; run ``i`` uses ``base_seed + i``.
    max_periods:
        Optional per-run period budget override (``None`` = Eq. 1).
    """

    name: str
    topology: TopologySpec = field(default_factory=TopologySpec)
    description: str = ""
    algorithm: str = PROTECTIONLESS
    search_distance: int = 3
    attacker: Optional[AttackerSpec] = None
    noise: str = "casino"
    sources: Tuple[Placement, ...] = ("top-left",)
    source_rotation_period: Optional[int] = None
    perturbations: Tuple[Perturbation, ...] = ()
    repeats: int = 30
    base_seed: int = 0
    max_periods: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise invalid_field(
                "ScenarioSpec", "name", self.name, "a scenario needs a name"
            )
        if self.algorithm not in ALGORITHMS:
            raise invalid_field(
                "ScenarioSpec",
                "algorithm",
                self.algorithm,
                f"unknown algorithm; pick one of {ALGORITHMS}",
            )
        if self.noise not in NOISE_REGIMES:
            raise invalid_field(
                "ScenarioSpec",
                "noise",
                self.noise,
                f"unknown noise regime; pick one of {NOISE_REGIMES}",
            )
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "perturbations", tuple(self.perturbations))
        if not self.sources:
            raise invalid_field(
                "ScenarioSpec", "sources", self.sources, "needs at least one source"
            )
        if self.repeats < 1:
            raise invalid_field(
                "ScenarioSpec", "repeats", self.repeats, "needs at least one repeat"
            )
        if self.source_rotation_period is not None:
            if self.source_rotation_period < 1:
                raise invalid_field(
                    "ScenarioSpec",
                    "source_rotation_period",
                    self.source_rotation_period,
                    "must be at least one period",
                )
            if len(self.sources) < 2:
                raise invalid_field(
                    "ScenarioSpec",
                    "sources",
                    self.sources,
                    "a mobile source needs at least two placements to rotate",
                )
        if self.max_periods is not None and self.max_periods < 1:
            raise invalid_field(
                "ScenarioSpec",
                "max_periods",
                self.max_periods,
                "a run must cover at least one period",
            )
        # Resolve placements eagerly so a malformed spec fails at
        # construction, not mid-sweep — and so duplicates are caught
        # even when spelled differently ("top-left" vs 0).
        resolved = self.resolved_sources()
        if len(set(resolved)) != len(resolved):
            raise invalid_field(
                "ScenarioSpec",
                "sources",
                self.sources,
                f"placements resolve to duplicate nodes {resolved}",
            )
        sink = self.topology.sink_node
        if sink in resolved:
            raise invalid_field(
                "ScenarioSpec",
                "sources",
                self.sources,
                f"placement resolves to node {sink}, the {self.topology.family}'s "
                "sink — the sink cannot hold the asset",
            )
        protected = set(resolved) | {sink}
        for perturbation in self.perturbations:
            for node in perturbation.nodes:
                if not 0 <= node < self.topology.num_nodes:
                    raise invalid_field(
                        "ScenarioSpec",
                        "perturbations",
                        node,
                        f"node id out of range for a {self.topology.family} of "
                        f"{self.topology.num_nodes} nodes",
                    )
                if node in protected:
                    role = "sink" if node == sink else "source"
                    raise invalid_field(
                        "ScenarioSpec",
                        "perturbations",
                        node,
                        f"cannot perturb the {role} (it anchors the privacy game)",
                    )

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def resolved_sources(self) -> Tuple[NodeId, ...]:
        """The source placements as concrete node ids, in pool order."""
        return tuple(self.topology.resolve_placement(p) for p in self.sources)

    def source_plan(self) -> SourcePlan:
        """The runtime :class:`~repro.app.SourcePlan` this spec denotes."""
        return SourcePlan(
            nodes=self.resolved_sources(),
            rotation_period=self.source_rotation_period,
        )

    def build_topology(self) -> Topology:
        """Construct the network with the primary source designated."""
        return self.topology.build(source=self.resolved_sources()[0])

    def to_config(
        self,
        repeats: Optional[int] = None,
        base_seed: Optional[int] = None,
    ) -> ExperimentConfig:
        """Lower onto the experiment engine's configuration object.

        The returned config carries the source plan and perturbations,
        so both :class:`~repro.experiments.ExperimentRunner` and
        :class:`~repro.experiments.ParallelExperimentRunner` sweep the
        scenario without scenario-specific code paths — which is what
        keeps serial and parallel scenario sweeps bit-identical.
        """
        return ExperimentConfig(
            algorithm=self.algorithm,
            search_distance=self.search_distance,
            repeats=self.repeats if repeats is None else repeats,
            base_seed=self.base_seed if base_seed is None else base_seed,
            noise=self.noise,
            attacker=self.attacker,
            source_plan=self.source_plan(),
            perturbations=self.perturbations,
            max_periods=self.max_periods,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def workload_kind(self) -> str:
        """A short label for listings: how the asset behaves."""
        if self.source_rotation_period is not None:
            return f"mobile({len(self.sources)} stops/{self.source_rotation_period}p)"
        if len(self.sources) > 1:
            return f"multi({len(self.sources)} sources)"
        return "static"

    def summary(self) -> str:
        """One listing row: workload, attacker, defence, dynamics."""
        attacker = (self.attacker or paper_attacker()).describe()
        parts = [
            f"{self.topology.family}-{self.topology.size}",
            self.algorithm,
            self.workload_kind(),
            attacker,
            f"noise={self.noise}",
        ]
        if self.perturbations:
            kinds = ",".join(
                sorted({type(p).__name__ for p in self.perturbations})
            )
            parts.append(f"perturb={kinds}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The spec as JSON-ready primitives (:meth:`from_dict` inverts
        it exactly — round-tripped specs compare equal)."""
        return {
            "name": self.name,
            "description": self.description,
            "topology": {
                "family": self.topology.family,
                "size": self.topology.size,
            },
            "algorithm": self.algorithm,
            "search_distance": self.search_distance,
            "attacker": (
                _attacker_to_dict(self.attacker)
                if self.attacker is not None
                else None
            ),
            "noise": self.noise,
            "sources": list(self.sources),
            "source_rotation_period": self.source_rotation_period,
            "perturbations": [
                _perturbation_to_dict(p) for p in self.perturbations
            ],
            "repeats": self.repeats,
            "base_seed": self.base_seed,
            "max_periods": self.max_periods,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Every validation failure — unknown fields, bad placements, an
        unrecognised decision function — surfaces as the library's
        uniform :class:`~repro.errors.ConfigurationError`, so callers
        (the CLI, the experiment service's submit endpoint) can turn a
        malformed payload into a clean diagnostic instead of a crash.
        """
        if not isinstance(data, dict):
            raise invalid_field(
                "ScenarioSpec", "json", type(data).__name__,
                "a scenario document must be a JSON object",
            )
        known = {
            "name", "description", "topology", "algorithm",
            "search_distance", "attacker", "noise", "sources",
            "source_rotation_period", "perturbations", "repeats",
            "base_seed", "max_periods",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise invalid_field(
                "ScenarioSpec", "json", unknown,
                f"unknown field(s); known fields: {sorted(known)}",
            )
        topology = data.get("topology", {})
        if not isinstance(topology, dict):
            raise invalid_field(
                "ScenarioSpec", "topology", topology,
                "expected an object with family/size",
            )
        try:
            return cls(
                name=data.get("name", ""),
                topology=TopologySpec(
                    family=topology.get("family", "grid"),
                    size=topology.get("size", 11),
                ),
                description=data.get("description", ""),
                algorithm=data.get("algorithm", PROTECTIONLESS),
                search_distance=data.get("search_distance", 3),
                attacker=_attacker_from_dict(data.get("attacker")),
                noise=data.get("noise", "casino"),
                sources=tuple(data.get("sources", ("top-left",))),
                source_rotation_period=data.get("source_rotation_period"),
                perturbations=tuple(
                    _perturbation_from_dict(p)
                    for p in data.get("perturbations", ())
                ),
                repeats=data.get("repeats", 30),
                base_seed=data.get("base_seed", 0),
                max_periods=data.get("max_periods"),
            )
        except ConfigurationError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise invalid_field(
                "ScenarioSpec", "json", data.get("name", "<unnamed>"),
                f"malformed scenario document: {exc}",
            ) from exc

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec serialised as JSON (sorted keys)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a :meth:`to_json` document back into a spec."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise invalid_field(
                "ScenarioSpec", "json", f"{text[:40]!r}...",
                f"not valid JSON: {exc}",
            ) from exc
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# JSON helpers: the attacker and perturbation vocabularies
# ----------------------------------------------------------------------

#: Decision functions a JSON spec may name (the ``D`` of the attacker
#: tuple).  All are parameter-free, so the class name is the whole
#: serialisation.
DECISION_FUNCTIONS = {
    "FollowFirstHeard": FollowFirstHeard,
    "FollowAnyHeard": FollowAnyHeard,
    "AvoidRecentlyVisited": AvoidRecentlyVisited,
}

#: Perturbation kinds a JSON spec may use, with their JSON field names.
PERTURBATION_KINDS = {
    "node-death": (NodeDeath, ("period", "nodes")),
    "node-sleep": (NodeSleep, ("period", "wake_period", "nodes")),
    "duty-cycle": (DutyCycle, ("nodes", "cycle_length", "sleep_for", "offset")),
}

_KIND_OF_PERTURBATION = {
    cls: kind for kind, (cls, _) in PERTURBATION_KINDS.items()
}


def _attacker_to_dict(attacker: AttackerSpec) -> Dict[str, object]:
    return {
        "messages_per_move": attacker.messages_per_move,
        "history_size": attacker.history_size,
        "moves_per_period": attacker.moves_per_period,
        "decision": attacker.decision.name,
    }


def _attacker_from_dict(data: object) -> Optional[AttackerSpec]:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise invalid_field(
            "ScenarioSpec", "attacker", data,
            "expected null or an object with R/H/M/decision fields",
        )
    decision_name = data.get("decision", "FollowFirstHeard")
    try:
        decision_cls = DECISION_FUNCTIONS[decision_name]
    except KeyError:
        raise invalid_field(
            "ScenarioSpec", "attacker", decision_name,
            f"unknown decision function; pick one of "
            f"{sorted(DECISION_FUNCTIONS)}",
        ) from None
    return AttackerSpec(
        messages_per_move=data.get("messages_per_move", 1),
        history_size=data.get("history_size", 0),
        moves_per_period=data.get("moves_per_period", 1),
        decision=decision_cls(),
    )


def _perturbation_to_dict(perturbation: Perturbation) -> Dict[str, object]:
    kind = _KIND_OF_PERTURBATION.get(type(perturbation))
    if kind is None:
        raise invalid_field(
            "ScenarioSpec", "perturbations", type(perturbation).__name__,
            f"not JSON-serialisable; known kinds: {sorted(PERTURBATION_KINDS)}",
        )
    _, field_names = PERTURBATION_KINDS[kind]
    payload: Dict[str, object] = {"kind": kind}
    for name in field_names:
        value = getattr(perturbation, name)
        payload[name] = list(value) if isinstance(value, tuple) else value
    return payload


def _perturbation_from_dict(data: object) -> Perturbation:
    if not isinstance(data, dict) or "kind" not in data:
        raise invalid_field(
            "ScenarioSpec", "perturbations", data,
            "each perturbation must be an object with a 'kind' field",
        )
    kind = data["kind"]
    try:
        cls, field_names = PERTURBATION_KINDS[kind]
    except KeyError:
        raise invalid_field(
            "ScenarioSpec", "perturbations", kind,
            f"unknown perturbation kind; pick one of "
            f"{sorted(PERTURBATION_KINDS)}",
        ) from None
    unknown = sorted(set(data) - {"kind"} - set(field_names))
    if unknown:
        raise invalid_field(
            "ScenarioSpec", "perturbations", unknown,
            f"unknown field(s) for kind {kind!r}; "
            f"known: {sorted(field_names)}",
        )
    kwargs = {}
    for name in field_names:
        if name in data:
            value = data[name]
            kwargs[name] = tuple(value) if name == "nodes" else value
    try:
        return cls(**kwargs)
    except ConfigurationError:
        raise
    except TypeError as exc:
        raise invalid_field(
            "ScenarioSpec", "perturbations", kind,
            f"missing or malformed fields: {exc}",
        ) from exc


def load_scenario_file(path: Union[str, Path]) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a JSON document on disk.

    The CLI's ``scenario run path/to/spec.json`` entry point and the
    file half of the experiment service's submit payload.  Unreadable
    files and malformed documents both raise
    :class:`~repro.errors.ConfigurationError`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise invalid_field(
            "ScenarioSpec", "path", str(path), f"cannot read spec file: {exc}"
        ) from exc
    return ScenarioSpec.from_json(text)
