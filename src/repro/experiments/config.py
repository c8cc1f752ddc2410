"""Table I — the parameters of the paper's evaluation, as code.

Every experiment module reads its defaults from here, so a single
source of truth maps the paper's parameter table onto the library's
configuration objects.  ``format_table1()`` regenerates the table
itself (the ``table1`` entry of the experiment index in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import invalid_field
from ..mac.frame import TdmaFrame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..das import DasProtocolConfig
    from ..topology import Topology

#: §VI-A: grid sizes of the evaluation.
PAPER_SIZES: Tuple[int, ...] = (11, 15, 21)

#: Table I rows: (symbol, description, value) for protectionless DAS.
PROTECTIONLESS_ROWS = (
    ("Psrc", "Source Period", "5.5 s"),
    ("Pslot", "Slot Period", "0.05 s"),
    ("Pdiss", "Dissemination Period", "0.5 s"),
    ("slots", "Number of Slots", "100"),
    ("MSP", "Minimum Setup Periods", "80"),
    ("NDP", "Neighbour Discovery Periods", "4"),
    ("DT", "Dissemination Timeout", "5"),
)

#: Table I rows added by SLP DAS.
SLP_ROWS = (
    ("SD", "Search Distance", "3, 5"),
    ("CL", "Change Length", "Δss − SD"),
)


@dataclass(frozen=True)
class PaperParameters:
    """The concrete Table I values wired into library objects.

    Attributes mirror the table; helper methods construct the
    corresponding configuration objects.
    """

    source_period: float = 5.5
    slot_period: float = 0.05
    dissemination_period: float = 0.5
    num_slots: int = 100
    minimum_setup_periods: int = 80
    neighbour_discovery_periods: int = 4
    dissemination_timeout: int = 5
    search_distances: Tuple[int, ...] = (3, 5)
    safety_factor: float = 1.5

    def __post_init__(self) -> None:
        expected = (
            self.dissemination_period + self.num_slots * self.slot_period
        )
        if abs(expected - self.source_period) > 1e-9:
            raise invalid_field(
                "PaperParameters",
                "source_period",
                self.source_period,
                "Table I is self-consistent: Psrc must equal "
                f"Pdiss + slots × Pslot = {expected}",
            )

    def frame(self) -> TdmaFrame:
        """The TDMA frame of Table I (period = source period = 5.5 s)."""
        return TdmaFrame(
            num_slots=self.num_slots,
            slot_duration=self.slot_period,
            dissemination_duration=self.dissemination_period,
        )

    def das_config(self, setup_periods: Optional[int] = None) -> DasProtocolConfig:
        """Phase 1 protocol parameters (``setup_periods`` overridable for
        fast test runs; defaults to the paper's MSP)."""
        from ..das.protocol import DasProtocolConfig

        return DasProtocolConfig(
            dissemination_period=self.dissemination_period,
            num_slots=self.num_slots,
            neighbour_discovery_periods=self.neighbour_discovery_periods,
            setup_periods=(
                setup_periods
                if setup_periods is not None
                else self.minimum_setup_periods
            ),
            dissemination_timeout=self.dissemination_timeout,
        )

    def change_length(self, topology: Topology, search_distance: int) -> int:
        """Table I: ``CL = Δss − SD`` (at least one hop)."""
        return max(1, topology.source_sink_distance() - search_distance)

    def simulation_bound_seconds(self, topology: Topology) -> float:
        """§VI-B: ``number of nodes × source period × 4``."""
        return topology.num_nodes * self.source_period * 4


#: The canonical instance used across experiments and benchmarks.
PAPER = PaperParameters()


def paper_topologies() -> List[Topology]:
    """The three grids of §VI-A (source top-left, sink centre)."""
    from ..topology import paper_grid

    return [paper_grid(size) for size in PAPER_SIZES]


def format_table1() -> str:
    """Regenerate Table I as fixed-width text."""
    lines = ["Table I: Parameters for protectionless and SLP DAS", ""]
    lines.append(f"{'Symbol':<8} {'Description':<32} {'Value':<10}")
    lines.append("-" * 52)
    lines.append("Protectionless DAS")
    for symbol, description, value in PROTECTIONLESS_ROWS:
        lines.append(f"{symbol:<8} {description:<32} {value:<10}")
    lines.append("SLP DAS")
    for symbol, description, value in SLP_ROWS:
        lines.append(f"{symbol:<8} {description:<32} {value:<10}")
    return "\n".join(lines)
