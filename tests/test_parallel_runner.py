"""Determinism and lifecycle tests for the parallel experiment engine.

The contract under test: a parallel seed sweep is *bit-identical* to a
serial sweep of the same configuration — same per-run results in the
same (seed) order, same aggregated stats — and the counting-only trace
mode changes no outcome, only what the recorder retains.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.app import run_operational_phase
from repro.das import centralized_das_schedule
from repro.errors import ConfigurationError
from repro.experiments import (
    MIN_NODE_RUNS_FOR_POOL,
    ExperimentConfig,
    ExperimentRunner,
    SeedPool,
    default_workers,
    plan_pool,
    plan_workers,
    seed_chunks,
)
from repro.experiments import options as options_module
from repro.records import asdict
from repro.simulator import ATTACKER_MOVE, CAPTURE, CasinoLabNoise


class TestSeedChunks:
    def test_contiguous_and_ordered(self):
        assert seed_chunks(list(range(10)), 3) == [
            (0, 1, 2, 3),
            (4, 5, 6),
            (7, 8, 9),
        ]

    def test_more_tasks_than_seeds(self):
        assert seed_chunks([7, 8], 5) == [(7,), (8,)]

    def test_empty(self):
        assert seed_chunks([], 4) == []

    def test_flatten_restores_order(self):
        seeds = list(range(23))
        chunks = seed_chunks(seeds, 7)
        assert [s for chunk in chunks for s in chunk] == seeds

    def test_zero_tasks_rejected(self):
        with pytest.raises(ConfigurationError):
            seed_chunks([1], 0)


class TestEngineChoice:
    """A sweep runs on the pool ``plan_pool`` picks, or serially."""

    def test_serial_by_default(self, grid5):
        for workers in (None, 1):
            assert plan_workers(workers) == 1
            assert plan_pool(workers, 1, grid5) is None

    def test_parallel_for_multiple_workers(self, grid5, monkeypatch):
        monkeypatch.setattr(options_module, "default_workers", lambda: 2)
        monkeypatch.setattr(options_module, "MIN_NODE_RUNS_FOR_POOL", 0)
        pool = plan_pool(2, 1, grid5, chunk_timeout=3.0)
        assert isinstance(pool, SeedPool)
        assert pool.workers == 2

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_zero_workers_means_one_per_cpu(self, grid5):
        """The CLI convention holds at the library layer too."""
        assert SeedPool(workers=0).workers == default_workers()
        assert plan_workers(0) == default_workers()

    def test_invalid_worker_count_rejected(self, grid5):
        with pytest.raises(ConfigurationError):
            SeedPool(workers=-1)
        with pytest.raises(ConfigurationError):
            SeedPool(workers=2, chunks_per_worker=0)


class TestWorkerPolicy:
    """plan_workers: fall back to serial where a pool cannot win
    (the bench's scenario_churn regression: 0.57x with 4 workers on a
    1-core container)."""

    def test_serial_requests_stay_serial(self, grid5):
        assert plan_workers(None) == 1
        assert plan_workers(1) == 1

    def test_capped_at_usable_cores(self, grid5, monkeypatch):
        monkeypatch.setattr(options_module, "default_workers", lambda: 2)
        assert plan_workers(8) == 2

    def test_single_core_falls_back_to_serial(self, grid5, monkeypatch):
        monkeypatch.setattr(options_module, "default_workers", lambda: 1)
        assert plan_workers(4) == 1
        assert plan_pool(4, 1000, grid5) is None

    def test_tiny_sweep_falls_back_to_serial(self, grid5, monkeypatch):
        monkeypatch.setattr(options_module, "default_workers", lambda: 8)
        # 2 repeats x 25 nodes is far below the dispatch threshold.
        assert plan_workers(4, repeats=2, topology=grid5) == 1
        big_enough = MIN_NODE_RUNS_FOR_POOL // grid5.num_nodes + 1
        assert plan_workers(4, repeats=big_enough, topology=grid5) == 4

    def test_policy_choice_never_changes_results(self, grid5):
        """A sweep the policy would serialize equals a pooled sweep."""
        cfg = ExperimentConfig(repeats=3, noise="casino")
        assert plan_workers(2, repeats=3, topology=grid5) == 1
        policy = ExperimentRunner(grid5).run(cfg)
        pooled = ExperimentRunner(grid5, pool=SeedPool(workers=2)).run(cfg)
        assert policy.results == pooled.results
        assert asdict(policy.stats) == asdict(pooled.stats)

    def test_figure5_and_overhead_obey_the_core_cap(self, monkeypatch):
        """``--workers 8`` on a 2-core host forks two workers in every
        sweep, as a scenario sweep does.  The pool is stubbed to record
        its width and run the seeds in-process."""
        from repro.experiments import measure_setup_overhead, run_figure5
        from repro.topology import GridTopology

        monkeypatch.setattr(options_module, "default_workers", lambda: 2)
        monkeypatch.setattr(options_module, "MIN_NODE_RUNS_FOR_POOL", 0)
        widths = []

        def in_process(self, run_seed, seeds, telemetry, on_result=None):
            widths.append(self.workers)
            return {seed: run_seed(seed) for seed in seeds}, ()

        monkeypatch.setattr(SeedPool, "map_seeds", in_process)
        run_figure5(3, sizes=(11,), repeats=2, noise="ideal", workers=8)
        assert widths == [2, 2]
        widths.clear()
        measure_setup_overhead(
            GridTopology(5), seeds=(0, 1, 2), setup_periods=12, workers=8
        )
        assert widths == [2]


class TestSerialParallelIdentity:
    """The determinism regression: serial and parallel sweeps agree."""

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("protectionless", {}),
        ("slp", {"search_distance": 2}),
    ])
    def test_bit_identical_outcomes(self, grid5, algorithm, kwargs):
        cfg = ExperimentConfig(
            algorithm=algorithm, repeats=5, base_seed=11, noise="casino", **kwargs
        )
        serial = ExperimentRunner(grid5).run(cfg)
        parallel = ExperimentRunner(grid5, pool=SeedPool(workers=2)).run(cfg)
        assert serial.results == parallel.results
        assert asdict(serial.stats) == asdict(parallel.stats)

    def test_single_seed_runs_in_process(self, grid5, monkeypatch):
        cfg = ExperimentConfig(repeats=1, noise="ideal")
        serial = ExperimentRunner(grid5).run(cfg)
        runner = ExperimentRunner(grid5, pool=SeedPool(workers=2))

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-seed sweep used the pool")

        monkeypatch.setattr(SeedPool, "map_seeds", no_pool)
        assert runner.run(cfg).results == serial.results

    def test_repeated_runs_fork_afresh_and_agree(self, grid5):
        runner = ExperimentRunner(grid5, pool=SeedPool(workers=2))
        a = runner.run(ExperimentConfig(repeats=4, noise="ideal"))
        assert multiprocessing.active_children() == []
        b = runner.run(ExperimentConfig(repeats=4, noise="ideal"))
        assert a.results == b.results

    def test_figure5_pooled_panel_matches_serial_cell_for_cell(
        self, pooled_sweeps
    ):
        """Each size's runner owns its pool; the pooled panel must still
        equal the serial one in every cell."""
        from repro.experiments import run_figure5

        kwargs = dict(sizes=(11, 15), repeats=4, noise="ideal")
        serial = run_figure5(3, **kwargs)
        assert pooled_sweeps == []
        pooled = run_figure5(3, workers=2, **kwargs)
        assert pooled_sweeps == [2, 2, 2, 2]
        assert [cell.size for cell in pooled.cells] == [11, 15]
        for got, want in zip(pooled.cells, serial.cells):
            assert got == want


class TestTopologyPickleDeterminism:
    """A topology shipped to a worker must behave like a fresh one.

    Pickling a frozenset does not preserve its iteration order, so the
    topology excludes its derived caches from its pickled state; the
    schedule tie-breaks that iterate 2-hop sets then match in-process
    construction exactly.
    """

    def test_schedule_identical_after_pickle(self, grid7):
        # Populate the lazy caches the way a sweep would.
        for node in grid7.nodes:
            grid7.collision_neighbourhood(node)
            grid7.neighbours(node)
        clone = pickle.loads(pickle.dumps(grid7))
        for seed in range(3):
            original = centralized_das_schedule(grid7, seed=seed)
            restored = centralized_das_schedule(clone, seed=seed)
            assert original.slots() == restored.slots()

    def test_pickled_state_drops_caches(self, grid5):
        grid5.collision_neighbourhood(0)
        grid5.sink_distance(0)
        clone = pickle.loads(pickle.dumps(grid5))
        assert clone._two_hop == {}
        assert clone._neighbour_cache == {}
        assert clone._metrics is None
        # ... and the clone still answers queries correctly.
        assert clone.collision_neighbourhood(0) == grid5.collision_neighbourhood(0)


class TestTraceModeDeterminism:
    """Counting-only tracing must not change a run's outcome."""

    def test_counting_only_vs_full_trace(self, grid5, grid5_schedule):
        """A full trace (every record kept) needs the legacy engine."""
        noise = CasinoLabNoise()
        counting = run_operational_phase(
            grid5, grid5_schedule, seed=3, noise=noise,
        )
        noise_full = CasinoLabNoise()
        full = run_operational_phase(
            grid5, grid5_schedule, seed=3, noise=noise_full, trace_kinds=None,
            kernel="legacy",
        )
        assert counting == full

    def test_outcome_identical_across_all_trace_modes(self, grid5, grid5_schedule):
        results = [
            run_operational_phase(
                grid5, grid5_schedule, seed=7, trace_kinds=kinds,
                kernel="legacy" if kinds is None else None,
            )
            for kinds in (frozenset(), None, frozenset({ATTACKER_MOVE, CAPTURE}))
        ]
        assert results[0] == results[1] == results[2]

    def test_per_kind_totals_identical_across_trace_modes(self, line5):
        """Same simulation, different trace modes: identical counts()."""
        from repro.simulator import BernoulliNoise, Simulator

        def run(kinds):
            sim = Simulator(line5, noise=BernoulliNoise(0.3), seed=5, trace_kinds=kinds)
            from repro.simulator import Process

            class Chatter(Process):
                def start(self):
                    self.set_timer("tick", 0.1)

                def on_timer(self, name, time):
                    self.broadcast(("hello", self.node))
                    if time < 2.0:
                        self.set_timer("tick", 0.25)

            for node in line5.nodes:
                sim.register_process(Chatter(node))
            sim.run(until=5.0)
            return sim.trace.counts(), len(sim.trace.records)

        full_counts, full_records = run(None)
        counting_counts, counting_records = run(frozenset())
        assert counting_counts == full_counts
        assert counting_records == 0
        assert full_records == sum(full_counts.values())
