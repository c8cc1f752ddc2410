"""Declarative scenario workloads swept through the experiment engine.

The paper's evaluation covers one workload shape: a single static
source on square grids against the ``(1, 0, 1, s0, first-heard)``
attacker.  This package turns every axis the paper parameterises into
a declarative, named workload:

* :class:`ScenarioSpec` — a frozen description of topology, source
  placement (static, multiple simultaneous, or mobile/rotating),
  attacker, noise regime and mid-run perturbations;
* the registry (:func:`register_scenario`, :func:`get_scenario`,
  :func:`scenario_names`) with a built-in gallery from
  ``paper-baseline`` to ``churn-10pct``;
* :class:`ScenarioRunner` — lowers specs onto the experiment runner,
  serial or pooled with bit-identical results either way, reporting
  per-source capture ratios and first-capture aggregation.

CLI: ``repro-slp-das scenario list|run|compare``.
"""

from .. import _lazy_exports

#: Submodule -> the public names it defines, each imported on first
#: access.
_EXPORTS = {
    "codec": (
        "DECISION_FUNCTIONS",
        "PERTURBATION_KINDS",
        "load_scenario_file",
    ),
    "registry": (
        "get_scenario",
        "iter_scenarios",
        "register_scenario",
        "scenario_names",
    ),
    "runner": (
        "ScenarioOutcome",
        "ScenarioRunner",
        "format_comparison",
    ),
    "spec": (
        "NOISE_REGIMES",
        "TOPOLOGY_FAMILIES",
        "ScenarioSpec",
        "TopologySpec",
        "lower_job",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
