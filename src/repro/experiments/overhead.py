"""The message-overhead experiment (§I / §VII: "negligible overhead").

Compares the two distributed setups — protectionless Phase 1 and the
full 3-phase SLP protocol — under identical seeds by counting every
broadcast, yielding the :class:`~repro.metrics.MessageOverhead` the
claim is about.  Only the SLP setup is simulated: its first ``MSP``
rounds *are* the protectionless run of the same seed (same RNG stream,
same jitter and noise draws; the search starts at round ``MSP``), so the
baseline is read off the SLP run at the Phase 1 → Phase 2 boundary.

Seeds are independent, so the sweep optionally fans out over worker
processes (``workers``) through
:meth:`~repro.experiments.ParallelExperimentRunner.map_seeds` — the
supervised pool every sweep uses, with its fault points, retries,
bisection, quarantine and worker telemetry.  Per-seed measurements come
back in seed order and are identical to a serial sweep; a seed that
fails every attempt is quarantined and listed in the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..das import run_das_setup
from ..das.protocol import unassigned_error
from ..errors import invalid_field
from ..metrics import MessageOverhead
from ..simulator import NoiseModel
from ..slp import SlpProtocolConfig, run_slp_setup
from ..telemetry import active_tracer
from ..topology import Topology
from .config import PAPER, PaperParameters
from .parallel import ParallelExperimentRunner, default_workers
from .resilience import FailedRun, nothing_survived


@dataclass(frozen=True)
class OverheadMeasurement:
    """Setup overhead for one topology across seeds.

    ``failures`` is empty unless a pooled run quarantined seeds; those
    seeds are then missing from ``per_seed`` and ``seeds``.
    """

    topology_name: str
    per_seed: Tuple[MessageOverhead, ...]
    #: the seed of each ``per_seed`` entry, in the same order.
    seeds: Tuple[int, ...]
    failures: Tuple[FailedRun, ...] = ()

    @property
    def mean_extra_messages(self) -> float:
        """Mean absolute overhead across seeds."""
        return sum(m.extra_messages for m in self.per_seed) / len(self.per_seed)

    @property
    def mean_overhead_percent(self) -> float:
        """Mean relative overhead across seeds."""
        return sum(m.overhead_percent for m in self.per_seed) / len(self.per_seed)


@dataclass(frozen=True)
class _SetupComparison:
    """The baseline-vs-SLP setup comparison on one topology; calling it
    measures one seed.

    Picklable, so pool workers receive the whole measurement setup in
    one object.  Under an active telemetry session each seed runs in an
    ``overhead.seed`` span (the setup kernels add their own
    ``setup.phase*`` children).
    """

    topology: Topology
    search_distance: int
    setup_periods: Optional[int]
    refinement_periods: int
    noise: Optional[NoiseModel]
    parameters: PaperParameters
    setup_kernel: Optional[str] = None

    def __call__(self, seed: int) -> MessageOverhead:
        tracer = active_tracer()
        if tracer is None:
            return self._measure(seed)
        with tracer.span("overhead.seed", seed=seed):
            return self._measure(seed)

    def _measure(self, seed: int) -> MessageOverhead:
        topology, noise, kernel = self.topology, self.noise, self.setup_kernel
        params = self.parameters
        das_cfg = params.das_config(setup_periods=self.setup_periods)
        try:
            slp_cfg = SlpProtocolConfig(
                das=das_cfg,
                search_distance=self.search_distance,
                change_length=params.change_length(topology, self.search_distance),
                refinement_periods=self.refinement_periods,
            )
            slp = run_slp_setup(
                topology, config=slp_cfg, seed=seed, noise=noise, setup_kernel=kernel
            )
        except Exception:
            # A failed SLP run leaves no Phase 1 snapshot.  Replay the
            # protectionless run so a seed whose Phase 1 fails raises
            # that error, as when the baseline was measured first.
            run_das_setup(
                topology, config=das_cfg, seed=seed, noise=noise, setup_kernel=kernel
            )
            raise
        # Counts are read; let refcounting free the run right away
        # instead of leaving its reference cycles to the cyclic collector.
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
    (``tests/test_overhead_prefix.py`` pins this).  A seed fails with
    :class:`~repro.errors.ProtocolError` exactly when either of the two
    setups would: with ``run_das_setup``'s message when Phase 1 leaves
    nodes without a slot, even if refinement would assign them later.

    ``setup_periods`` defaults to the paper's MSP (80); tests pass a
    smaller value to keep runtime down.  ``workers`` spreads the seeds
    over up to that many processes (``None`` or ``1`` = serial, ``0`` =
    one per CPU).  A serial run raises a failing seed's error; a pooled
    run retries it, quarantines it into ``failures`` and raises
    :class:`~repro.errors.SweepExecutionError` only when no seed
    survives — as scenario sweeps do.  ``setup_kernel`` selects the
    setup engine (``"fast"``/``"legacy"``/``None`` for the default;
    bit-identical either way).
    """
    seeds = list(seeds)
    if not seeds:
        raise invalid_field(
            "measure_setup_overhead", "seeds", seeds,
            "the experiment needs at least one seed",
        )
    measure = _SetupComparison(
        topology, search_distance, setup_periods, refinement_periods, noise,
        parameters, setup_kernel,
    )
    pool = 1 if workers is None else min(workers or default_workers(), len(seeds))
    if pool <= 1:
        return OverheadMeasurement(
            topology.name, tuple(measure(seed) for seed in seeds), tuple(seeds)
        )
    with ParallelExperimentRunner(topology, workers=pool) as runner:
        by_seed, failures = runner.map_seeds(
            lambda chunk: measure, seeds, active_tracer() is not None
        )
    if not by_seed:
        raise nothing_survived("measure_setup_overhead", seeds, failures)
    done = tuple(seed for seed in seeds if seed in by_seed)
    return OverheadMeasurement(
        topology.name, tuple(by_seed[seed] for seed in done), done, failures
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
    for failure in measurement.failures:
        lines.append(
            f"{failure.seed:<6} quarantined after {failure.attempts} "
            f"attempt(s): {failure.kind}"
        )
    lines.append("-" * 48)
    lines.append(
        f"mean: +{measurement.mean_extra_messages:.0f} msgs "
        f"({measurement.mean_overhead_percent:+.1f}%)"
    )
    return "\n".join(lines)
