"""Table I as text: ``format_table1()`` regenerates the paper's
parameter table (the ``table1`` entry of the experiment index in
DESIGN.md) from the values :mod:`repro.experiments.config` wires into
the library."""

from __future__ import annotations

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
