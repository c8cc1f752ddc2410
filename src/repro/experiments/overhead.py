"""The message-overhead experiment (§I / §VII: "negligible overhead").

Compares the two distributed setups — protectionless Phase 1 and the
full 3-phase SLP protocol — under identical seeds by counting every
broadcast, yielding the :class:`~repro.metrics.MessageOverhead` the
claim is about.  Only the SLP setup is simulated: its first ``MSP``
rounds *are* the protectionless run of the same seed (same RNG stream,
same jitter and noise draws; the search starts at round ``MSP``), so the
baseline is read off the SLP run at the Phase 1 → Phase 2 boundary.

Seeds are independent, so the sweep optionally fans out over a process
pool (``workers``); per-seed measurements come back in seed order and
are identical to a serial sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..das import run_das_setup
from ..das.protocol import unassigned_error
from ..metrics import MessageOverhead
from ..simulator import NoiseModel
from ..slp import SlpProtocolConfig, run_slp_setup
from ..telemetry import active_tracer
from ..topology import Topology
from .config import PAPER, PaperParameters
from .parallel import resolve_workers


@dataclass(frozen=True)
class OverheadMeasurement:
    """Setup overhead for one topology across seeds."""

    topology_name: str
    per_seed: Tuple[MessageOverhead, ...]
    #: the seed of each ``per_seed`` entry, in the same order.
    seeds: Tuple[int, ...]

    @property
    def mean_extra_messages(self) -> float:
        """Mean absolute overhead across seeds."""
        return sum(m.extra_messages for m in self.per_seed) / len(self.per_seed)

    @property
    def mean_overhead_percent(self) -> float:
        """Mean relative overhead across seeds."""
        return sum(m.overhead_percent for m in self.per_seed) / len(self.per_seed)


def _measure_one_seed(
    topology: Topology,
    seed: int,
    search_distance: int,
    setup_periods: Optional[int],
    refinement_periods: int,
    noise: Optional[NoiseModel],
    parameters: PaperParameters,
    setup_kernel: Optional[str] = None,
) -> MessageOverhead:
    """One seed's baseline-vs-SLP setup comparison.

    Module-level so the parallel path can ship it to worker processes.
    Under an active telemetry session the whole measurement runs in an
    ``overhead.seed`` span (the setup kernels add their own
    ``setup.phase*`` children).
    """
    tracer = active_tracer()
    if tracer is None:
        return _measure_one_seed_impl(
            topology,
            seed,
            search_distance,
            setup_periods,
            refinement_periods,
            noise,
            parameters,
            setup_kernel,
        )
    with tracer.span("overhead.seed", seed=seed):
        return _measure_one_seed_impl(
            topology,
            seed,
            search_distance,
            setup_periods,
            refinement_periods,
            noise,
            parameters,
            setup_kernel,
        )


def _measure_one_seed_impl(
    topology: Topology,
    seed: int,
    search_distance: int,
    setup_periods: Optional[int],
    refinement_periods: int,
    noise: Optional[NoiseModel],
    parameters: PaperParameters,
    setup_kernel: Optional[str] = None,
) -> MessageOverhead:
    das_cfg = parameters.das_config(setup_periods=setup_periods)
    try:
        slp_cfg = SlpProtocolConfig(
            das=das_cfg,
            search_distance=search_distance,
            change_length=parameters.change_length(topology, search_distance),
            refinement_periods=refinement_periods,
        )
        slp = run_slp_setup(
            topology, config=slp_cfg, seed=seed, noise=noise, setup_kernel=setup_kernel
        )
    except Exception:
        # A failed SLP run leaves no Phase 1 snapshot.  Replay the
        # protectionless run so a seed whose Phase 1 fails raises that
        # error, as when the baseline was measured first.
        run_das_setup(
            topology, config=das_cfg, seed=seed, noise=noise, setup_kernel=setup_kernel
        )
        raise
    # Counts are read; let refcounting free the run right away instead
    # of leaving its reference cycles to the cyclic collector.
    slp.simulator.close()
    if slp.phase1_unassigned:
        # The protectionless run of this seed would have failed here.
        raise unassigned_error(slp.phase1_unassigned)
    return MessageOverhead(
        baseline_messages=slp.phase1_messages,
        slp_messages=slp.messages_sent,
        search_messages=slp.search_messages,
        change_messages=slp.change_messages,
    )


def measure_setup_overhead(
    topology: Topology,
    seeds: Sequence[int] = (0, 1, 2),
    search_distance: int = 3,
    setup_periods: Optional[int] = None,
    refinement_periods: int = 20,
    noise: Optional[NoiseModel] = None,
    parameters: PaperParameters = PAPER,
    workers: Optional[int] = None,
    setup_kernel: Optional[str] = None,
) -> OverheadMeasurement:
    """Measure SLP setup overhead over protectionless setup.

    Each seed runs one distributed SLP setup.  The protectionless
    baseline is that run's Phase 1 prefix: the broadcasts sent before
    the sink starts the search at round ``MSP``, which equal
    ``run_das_setup(...).messages_sent`` for the same seed
    (``tests/test_overhead_prefix.py`` pins this).  A seed raises
    :class:`~repro.errors.ProtocolError` exactly when either of the two
    setups would: with ``run_das_setup``'s message when Phase 1 leaves
    nodes without a slot, even if refinement would assign them later.

    ``setup_periods`` defaults to the paper's MSP (80); tests pass a
    smaller value to keep runtime down.  ``workers`` spreads the seeds
    over that many processes (``None`` or ``1`` = serial).
    ``setup_kernel`` selects the setup engine (``"fast"``/``"legacy"``/
    ``None`` for the default; bit-identical either way).
    """
    seeds = list(seeds)
    workers = resolve_workers(workers)
    if workers is not None and workers > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
            measurements = list(
                pool.map(
                    _measure_one_seed,
                    (topology,) * len(seeds),
                    seeds,
                    (search_distance,) * len(seeds),
                    (setup_periods,) * len(seeds),
                    (refinement_periods,) * len(seeds),
                    (noise,) * len(seeds),
                    (parameters,) * len(seeds),
                    (setup_kernel,) * len(seeds),
                )
            )
    else:
        measurements = [
            _measure_one_seed(
                topology,
                seed,
                search_distance,
                setup_periods,
                refinement_periods,
                noise,
                parameters,
                setup_kernel,
            )
            for seed in seeds
        ]
    return OverheadMeasurement(
        topology_name=topology.name,
        per_seed=tuple(measurements),
        seeds=tuple(seeds),
    )


def format_overhead(measurement: OverheadMeasurement) -> str:
    """Render the overhead experiment as fixed-width text."""
    lines = [
        f"Setup message overhead on {measurement.topology_name} "
        f"({len(measurement.per_seed)} seeds)",
        "",
        f"{'Seed':<6} {'Baseline':>10} {'SLP':>10} {'Extra':>8} {'Overhead':>10}",
        "-" * 48,
    ]
    for seed, m in zip(measurement.seeds, measurement.per_seed):
        lines.append(
            f"{seed:<6} {m.baseline_messages:>10} {m.slp_messages:>10} "
            f"{m.extra_messages:>8} {m.overhead_percent:>9.1f}%"
        )
    lines.append("-" * 48)
    lines.append(
        f"mean: +{measurement.mean_extra_messages:.0f} msgs "
        f"({measurement.mean_overhead_percent:+.1f}%)"
    )
    return "\n".join(lines)
