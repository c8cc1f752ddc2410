"""repro — a reproduction of "Source Location Privacy-Aware Data
Aggregation Scheduling for Wireless Sensor Networks" (Kirton, Bradbury,
Jhumka — ICDCS 2017).

The package provides, end to end:

* WSN topologies and a discrete event simulator with a TDMA MAC
  (:mod:`repro.topology`, :mod:`repro.simulator`, :mod:`repro.mac`);
* the paper's formal objects — schedules, strong/weak DAS checks,
  safety periods (:mod:`repro.core`);
* the 3-phase protocol, both distributed (message level) and as a
  seeded centralised pipeline (:mod:`repro.das`, :mod:`repro.slp`);
* the ``(R, H, M, s0, D)`` eavesdropper and the ``VerifySchedule``
  decision procedure (:mod:`repro.attacker`, :mod:`repro.verification`);
* the evaluation harness regenerating Table I and Figure 5
  (:mod:`repro.app`, :mod:`repro.metrics`, :mod:`repro.experiments`).

Quickstart::

    from repro import paper_grid, build_slp_schedule, verify_schedule
    from repro import safety_period, PAPER

    grid = paper_grid(11)
    build = build_slp_schedule(grid, seed=0)
    delta = safety_period(grid, PAPER.frame().period_length).periods
    print(verify_schedule(grid, build.schedule, delta))
"""

import sys
from typing import Callable, Dict, List, Sequence, Tuple


def _lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package root whose
    public names resolve on first access (PEP 562).

    ``exports`` maps each submodule to the names it defines.  Importing
    the package runs none of those submodules: a name's submodule is
    imported when the name is first read, and the value is then cached
    in the package namespace.  Every package root uses this, so a cold
    CLI call compiles only the modules its subcommand runs.
    """
    source = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``__import__``, not ``importlib.import_module``: only imports
        # that go through it show up under ``-X importtime``.
        value = getattr(__import__(f"{package}.{module}", fromlist=(name,)), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return sorted(source), __getattr__, __dir__


#: Submodule -> the public names it defines.  Each name is imported on
#: first access (PEP 562), so importing one submodule of the package
#: does not load every other one.
_EXPORTS = {
    "analysis": (
        "GradientField",
        "descent_path",
        "gradient_field",
        "gradient_successor",
        "predicts_capture",
        "refinement_footprint",
    ),
    "attacker": (
        "AttackerSpec",
        "AttackerState",
        "AvoidRecentlyVisited",
        "EavesdropperAgent",
        "FollowAnyHeard",
        "FollowFirstHeard",
        "HeardMessage",
        "paper_attacker",
    ),
    "app": (
        "OperationalResult",
        "run_operational_phase",
        "DutyCycle",
        "NodeDeath",
        "NodeSleep",
        "SourcePlan",
    ),
    "core": (
        "DasCheckResult",
        "DasViolation",
        "SafetyPeriod",
        "Schedule",
        "capture_time_periods",
        "capture_time_seconds",
        "check_strong_das",
        "check_weak_das",
        "is_non_colliding",
        "is_strong_das",
        "is_weak_das",
        "safety_period",
        "simulation_time_bound",
    ),
    "das": (
        "DasProtocolConfig",
        "DasSetupResult",
        "centralized_das_schedule",
        "run_das_setup",
    ),
    "errors": (
        "ConfigurationError",
        "ProtocolError",
        "ReproError",
        "ScheduleError",
        "SimulationError",
        "TopologyError",
        "VerificationError",
    ),
    "experiments": (
        "PAPER",
        "PAPER_SIZES",
        "ExperimentConfig",
        "ExperimentRunner",
        "format_figure5",
        "format_table1",
        "measure_setup_overhead",
        "run_figure5",
    ),
    "mac": (
        "TdmaDriver",
        "TdmaFrame",
    ),
    "metrics": (
        "CaptureStats",
        "FirstCaptureStats",
        "MessageOverhead",
        "PerSourceCapture",
        "aggregation_stats",
        "capture_stats",
        "first_capture_stats",
        "per_source_capture_stats",
    ),
    "scenarios": (
        "ScenarioOutcome",
        "ScenarioRunner",
        "ScenarioSpec",
        "TopologySpec",
        "get_scenario",
        "register_scenario",
        "scenario_names",
    ),
    "simulator": (
        "BernoulliNoise",
        "CasinoLabNoise",
        "IdealNoise",
        "NoiseModel",
        "Process",
        "Simulator",
    ),
    "slp": (
        "SlpBuildResult",
        "SlpParameters",
        "SlpProtocolConfig",
        "SlpSetupResult",
        "build_slp_schedule",
        "run_slp_setup",
    ),
    "topology": (
        "GridTopology",
        "LineTopology",
        "RingTopology",
        "Topology",
        "paper_grid",
        "random_geometric_topology",
    ),
    "verification": (
        "VerificationResult",
        "generate_attacker_traces",
        "is_slp_aware_das",
        "minimum_capture_period",
        "verify_schedule",
    ),
    "version": (
        "__version__",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
