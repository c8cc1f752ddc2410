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
:class:`~repro.experiments.ExperimentConfig` the experiment runner
already knows how to sweep.  :func:`lower_job` makes both calls for
every path that sweeps a scenario: the scenario runner, and the
service's scheduler, workers, submit validator, ``fsck`` and ``gc``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from ..attacker import AttackerSpec, paper_attacker
from ..errors import invalid_field
from ..experiments import ALGORITHMS, PROTECTIONLESS, ExperimentConfig
from ..records import Record, factory, replace
from ..app import SourcePlan
from ..topology import GridTopology, NodeId, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..app import Perturbation

#: Topology families a scenario may request.
TOPOLOGY_FAMILIES = ("grid", "line", "ring")

#: Noise regimes a scenario may request (the ExperimentConfig spellings).
NOISE_REGIMES = ("casino", "ideal")

#: A source placement: a concrete node id or a symbolic position.
Placement = Union[int, str]


@lru_cache(maxsize=16)
def _build_topology(family: str, size: int, source: Optional[NodeId]) -> Topology:
    """The one construction behind :meth:`TopologySpec.build`."""
    if family == "grid":
        return GridTopology(size, source=source)
    # Imported here: the paper's cells are all grids.
    if family == "line":
        from ..topology.line import LineTopology

        built: Topology = LineTopology(size)
    else:
        from ..topology.ring import RingTopology

        built = RingTopology(size)
    if source is not None and source != built.source:
        built = built.with_source(source)
    return built


class TopologySpec(Record):
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
        """Construct the topology, optionally designating ``source``.

        Built once per process for each ``(family, size, source)``:
        topologies are immutable, so a service that validates a job on
        submit and runs it on a scheduler thread shares one build.
        """
        return _build_topology(self.family, self.size, source)

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


class ScenarioSpec(Record):
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
    topology: TopologySpec = factory(TopologySpec)
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
        so :class:`~repro.experiments.ExperimentRunner` sweeps the
        scenario, serially or on a pool, without scenario-specific code
        paths — which is what keeps serial and parallel scenario sweeps
        bit-identical.  :func:`lower_job` adds the engine overrides.
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
    # JSON round trip (the codec loads on first use)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The spec as JSON-ready primitives (:meth:`from_dict` inverts
        it exactly — round-tripped specs compare equal)."""
        from .codec import spec_to_dict

        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Every validation failure — unknown fields, bad placements, an
        unrecognised decision function — surfaces as the library's
        uniform :class:`~repro.errors.ConfigurationError`, so callers
        (the CLI, the experiment service's submit endpoint) can turn a
        malformed payload into a clean diagnostic instead of a crash.
        """
        from .codec import spec_from_dict

        return spec_from_dict(cls, data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec serialised as JSON (sorted keys)."""
        from .codec import spec_to_json

        return spec_to_json(self, indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a :meth:`to_json` document back into a spec."""
        from .codec import spec_from_json

        return spec_from_json(cls, text)


def lower_job(
    spec: ScenarioSpec,
    repeats: Optional[int] = None,
    base_seed: Optional[int] = None,
    kernel: Optional[str] = None,
    setup_kernel: Optional[str] = None,
) -> Tuple[Topology, ExperimentConfig]:
    """Lower a spec plus its seed and engine overrides to ``(topology,
    config)``: the one lowering every scenario sweep runs, so a direct
    sweep and a service job agree byte-for-byte — the byte-identity
    contract starts here."""
    topology = spec.build_topology()
    config = spec.to_config(repeats=repeats, base_seed=base_seed)
    if kernel is not None or setup_kernel is not None:
        config = replace(config, kernel=kernel, setup_kernel=setup_kernel)
    return topology, config
