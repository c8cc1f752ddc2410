"""Chaos and checkpoint tests for fault-tolerant sweep execution.

The contracts under test, in roughly increasing order of violence:

* a supervised sweep in which nothing fails is *byte-identical* to the
  pre-supervision engine at every worker count;
* transient worker failures are retried away completely; crashed and
  hung workers cost wall-clock but no results; poison seeds are
  isolated and quarantined while their chunk-mates complete normally;
* an interrupted sweep resumed from its checkpoint reproduces the
  uninterrupted report bit-for-bit;
* the differential divergence guard catches a silently wrong kernel
  result and degrades the sweep to the legacy engines instead of
  publishing it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import EXIT_QUARANTINED, EXIT_SWEEP_FAILED, main
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    SweepExecutionError,
    sweep_failed,
)
from repro.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    FailedRun,
    FaultPlan,
    InjectedFault,
    Ladder,
    RetryPolicy,
    SeedPool,
    SweepCheckpoint,
    format_overhead,
    guard_sample,
    measure_setup_overhead,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.options import default_workers
from repro.experiments.runner import PROTECTIONLESS, SLP
from repro.records import replace
from repro.scenarios import ScenarioRunner
from repro.telemetry import TelemetrySession
from repro.topology import GridTopology, paper_grid

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002)


@pytest.fixture
def config():
    return ExperimentConfig(algorithm=PROTECTIONLESS, repeats=8, base_seed=0)


@pytest.fixture
def serial(grid5, config):
    return ExperimentRunner(grid5).run(config)


def sweep_with_plan(topology, config, plan, workers=2, **kwargs):
    kwargs.setdefault("retry_policy", FAST_RETRY)
    with plan.activated():
        pool = SeedPool(workers=workers, **kwargs)
        return ExperimentRunner(topology, pool=pool).run(config)


class TestRetryPolicy:
    def test_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay(2, key=3) == policy.delay(2, key=3)
        assert policy.delay(2, key=3) != policy.delay(2, key=4)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4)
        # jitter scales by [0.5, 1.0), so compare against raw bounds
        assert 0.05 <= policy.delay(1) < 0.1
        assert 0.1 <= policy.delay(2) < 0.2
        assert 0.2 <= policy.delay(5) < 0.4  # capped at max_delay

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="base_delay=-1.0"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ConfigurationError, match="max_delay=-1"):
            RetryPolicy(max_delay=-1)


class TestFaultPlan:
    def test_env_round_trip(self, tmp_path):
        plan = FaultPlan(
            crash_seeds=(1,),
            poison_seeds=(2, 3),
            hang_seconds=1.5,
            marker_dir=str(tmp_path),
        )
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_once_only_needs_marker_dir(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_seeds=(1,))
        FaultPlan(poison_seeds=(1,))  # unconditional kinds need none

    def test_activated_restores_environment(self, tmp_path, monkeypatch):
        import os

        from repro.experiments.faults import FAULT_PLAN_ENV

        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        plan = FaultPlan(poison_seeds=(1,))
        with plan.activated():
            assert os.environ[FAULT_PLAN_ENV] == plan.to_env()
        assert FAULT_PLAN_ENV not in os.environ

    def test_once_only_marker_fires_once(self, tmp_path):
        plan = FaultPlan(transient_seeds=(5,), marker_dir=str(tmp_path))
        with pytest.raises(InjectedFault):
            plan.before_seed(5)
        plan.before_seed(5)  # second attempt proceeds

    def test_perturb_skips_legacy_kernel(self, grid5):
        config = ExperimentConfig(algorithm=PROTECTIONLESS, repeats=1)
        result = ExperimentRunner(grid5).run_once(config, 0)
        plan = FaultPlan(perturb_seeds=(0,))
        corrupted = plan.on_result(config, 0, result)
        assert corrupted.messages_sent == result.messages_sent + 1
        legacy = replace(config, kernel="legacy")
        assert plan.on_result(legacy, 0, result) is result


class TestLadder:
    @pytest.mark.parametrize(
        "namespace, unit",
        [("supervisor", "chunk"), ("service", "shard")],
        ids=["chunk-supervisor", "shard-board"],
    )
    def test_decision_table(self, namespace, unit):
        """Retry with backoff while attempts last, then bisect into
        fresh halves (after the same backoff), then quarantine a lone
        seed — counted and traced under the caller's names."""
        retry = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=1.0)
        ladder = Ladder(retry, namespace, unit)
        with TelemetrySession(label="ladder") as session:
            retried = ladder.climb((4, 5, 6), 1, "crash", "E: a")
            bisected = ladder.climb((4, 5, 6), 2, "error", "E: b")
            quarantined = ladder.climb((5,), 2, "timeout", "E: c")
        assert retried.requeue == (((4, 5, 6), 2),)
        assert retried.delay == retry.delay(1, key=4) > 0
        assert retried.failure is None
        assert bisected.requeue == (((4,), 1), ((5, 6), 1))
        assert bisected.delay == retry.delay(2, key=4) > 0
        assert bisected.failure is None
        assert quarantined.requeue == ()
        assert quarantined.delay == 0.0
        assert quarantined.failure == FailedRun(5, 2, "timeout", "E: c")
        counters = session.registry.snapshot()["counters"]
        assert {
            name: counters.get(f"{namespace}.{name}", 0)
            for name in ("retries", "bisections", "quarantined", "timeouts")
        } == {"retries": 1, "bisections": 1, "quarantined": 1, "timeouts": 1}
        names = [s.name for s in session.tracer.spans()]
        for step in ("retry", "bisect", "quarantine"):
            assert f"{unit}.{step}" in names


class TestResultRoundTrip:
    def test_json_round_trip_is_exact(self, grid5, config):
        result = ExperimentRunner(grid5).run_once(config, 3)
        payload = json.loads(json.dumps(result_to_dict(result)))
        assert result_from_dict(payload) == result

    def test_equals_asdict_captured_and_uncaptured(self):
        from repro.records import asdict

        from repro.app import OperationalResult

        captured = OperationalResult(
            captured=True,
            capture_period=7,
            capture_time=3.5,
            periods_run=7,
            safety_periods=12,
            attacker_path=(60, 49, 38),
            messages_sent=840,
            aggregation_ratio=0.875,
            captured_source=38,
            source_pool=(38, 0),
        )
        uncaptured = replace(
            captured,
            captured=False,
            capture_period=None,
            capture_time=None,
            captured_source=None,
            source_pool=(),
        )
        for result in (captured, uncaptured):
            as_dict = result_to_dict(result)
            assert as_dict == asdict(result)
            assert list(as_dict) == list(asdict(result))


class TestSupervisedChaos:
    def test_transient_fault_retried_away(self, grid5, config, serial, tmp_path):
        plan = FaultPlan(transient_seeds=(3,), marker_dir=str(tmp_path))
        outcome = sweep_with_plan(grid5, config, plan)
        assert outcome.failures == ()
        assert outcome.results == serial.results
        assert outcome.stats == serial.stats

    def test_poison_seed_quarantined_others_identical(
        self, grid5, config, serial, tmp_path
    ):
        plan = FaultPlan(poison_seeds=(5,), marker_dir=str(tmp_path))
        outcome = sweep_with_plan(grid5, config, plan)
        assert [f.seed for f in outcome.failures] == [5]
        failure = outcome.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == FAST_RETRY.max_attempts
        assert "InjectedFault" in failure.error
        expected = tuple(r for i, r in enumerate(serial.results) if i != 5)
        assert outcome.results == expected

    def test_worker_crash_respawned_and_recovered(
        self, grid5, config, serial, tmp_path
    ):
        plan = FaultPlan(crash_seeds=(2,), marker_dir=str(tmp_path))
        outcome = sweep_with_plan(
            grid5, config, plan, retry_policy=RetryPolicy(4, 0.001, 0.002)
        )
        assert outcome.failures == ()
        assert outcome.results == serial.results

    def test_dead_worker_charged_on_its_own_lease_only(self, tmp_path):
        """Two workers, one shard each; the worker leasing seeds 0-5
        dies at seed 0.  Only its shard is charged an attempt: the
        other shard's seeds land once, at their first attempt."""
        topology = paper_grid(11)
        config = ExperimentConfig(algorithm=PROTECTIONLESS, repeats=12, base_seed=0)
        plan = FaultPlan(crash_seeds=(0,), marker_dir=str(tmp_path))
        landed = Counter()
        with TelemetrySession(label="blame") as session, plan.activated():
            pool = SeedPool(workers=2, chunks_per_worker=1, retry_policy=FAST_RETRY)
            outcome = ExperimentRunner(topology, pool=pool).run(
                config, on_result=lambda seed, result: landed.update([seed])
            )
        assert outcome.failures == ()
        assert outcome.results == ExperimentRunner(topology).run(config).results
        assert landed == Counter(range(12))
        retried = [
            span.attrs["seeds"]
            for span in session.tracer.spans()
            if span.name == "chunk.retry"
        ]
        assert retried == [[0, 1, 2, 3, 4, 5]]
        counters = session.registry.snapshot()["counters"]
        assert counters["supervisor.retries"] == 1
        assert counters["supervisor.respawns"] == 1

    def test_partition_plan_leaves_pooled_workers_alone(
        self, grid5, tmp_path, pooled_sweeps
    ):
        """A partition is a network fault: it fires in the HTTP
        transport, and a pooled worker's pipe has none to cut."""
        config = ExperimentConfig(algorithm=PROTECTIONLESS, repeats=4, base_seed=0)
        plan = FaultPlan(partition_worker=(1,), marker_dir=str(tmp_path))
        with TelemetrySession(label="partition") as session, plan.activated():
            pool = SeedPool(workers=2, chunks_per_worker=1, retry_policy=FAST_RETRY)
            outcome = ExperimentRunner(grid5, pool=pool).run(config)
        assert pooled_sweeps == [2]
        assert outcome.failures == ()
        assert outcome.results == ExperimentRunner(grid5).run(config).results
        counters = session.registry.snapshot()["counters"]
        assert counters.get("supervisor.respawns", 0) == 0
        assert counters.get("supervisor.retries", 0) == 0

    def test_hung_worker_reclaimed_by_chunk_timeout(
        self, grid5, config, serial, tmp_path
    ):
        plan = FaultPlan(
            hang_seeds=(1,), hang_seconds=60.0, marker_dir=str(tmp_path)
        )
        outcome = sweep_with_plan(grid5, config, plan, chunk_timeout=5.0)
        assert outcome.failures == ()
        assert outcome.results == serial.results

    def test_pickle_fault_on_submit_recovered(
        self, grid5, config, serial, tmp_path
    ):
        plan = FaultPlan(pickle_seeds=(4,), marker_dir=str(tmp_path))
        outcome = sweep_with_plan(grid5, config, plan)
        assert outcome.failures == ()
        assert outcome.results == serial.results

    def test_all_seeds_poisoned_fails_loudly(self, grid5, config, tmp_path):
        plan = FaultPlan(
            poison_seeds=tuple(range(config.repeats)), marker_dir=str(tmp_path)
        )
        runner = ExperimentRunner(
            grid5, pool=SeedPool(workers=2, retry_policy=FAST_RETRY)
        )
        with plan.activated():
            with pytest.raises(SweepExecutionError) as excinfo:
                runner.run(config)
        assert excinfo.value.seeds == tuple(range(config.repeats))

    def test_transient_crash_and_poison_in_one_sweep(self, tmp_path):
        """The chaos drill: one 7x7 sweep meets a transient failure, a
        worker crash and a poison seed.  The survivors equal the serial
        sweep, only the poison seed is quarantined, and the stats cover
        the survivors."""
        topology = GridTopology(7)
        config = ExperimentConfig(algorithm=PROTECTIONLESS, repeats=10, base_seed=0)
        serial = ExperimentRunner(topology).run(config)
        plan = FaultPlan(
            transient_seeds=(1,),
            crash_seeds=(4,),
            poison_seeds=(7,),
            marker_dir=str(tmp_path),
        )
        outcome = sweep_with_plan(
            topology,
            config,
            plan,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.01),
            chunk_timeout=60.0,
        )
        assert [f.seed for f in outcome.failures] == [7]
        assert outcome.results == tuple(
            r for i, r in enumerate(serial.results) if i != 7
        )
        assert outcome.stats.runs == config.repeats - 1

    def test_fault_free_supervised_sweep_identical_at_any_width(
        self, grid5, config, serial
    ):
        for workers in (2, 3):
            pool = SeedPool(workers=workers)
            outcome = ExperimentRunner(grid5, pool=pool).run(config)
            assert outcome.failures == ()
            assert outcome.results == serial.results
            assert outcome.stats == serial.stats


OVERHEAD = dict(seeds=range(6), setup_periods=30)


@pytest.fixture(scope="module")
def serial_overhead():
    return measure_setup_overhead(paper_grid(11), **OVERHEAD)


class TestOverheadChaos:
    """The overhead experiment runs on the same supervised pool as the
    sweeps, so worker faults cost it no result either."""

    def test_faulty_pool_matches_serial_except_poison(
        self, serial_overhead, tmp_path
    ):
        plan = FaultPlan(
            transient_seeds=(1,),
            crash_seeds=(2,),
            poison_seeds=(4,),
            marker_dir=str(tmp_path),
        )
        with TelemetrySession(label="drill") as session, plan.activated():
            measured = measure_setup_overhead(paper_grid(11), workers=2, **OVERHEAD)
        counters = session.registry.snapshot()["counters"]
        assert counters["supervisor.respawns"] >= 1  # the crash really hit
        assert counters["supervisor.quarantined"] == 1
        assert [f.seed for f in measured.failures] == [4]
        failure = measured.failures[0]
        assert failure.kind == "error"
        assert "InjectedFault" in failure.error
        assert measured.seeds == (0, 1, 2, 3, 5)
        assert measured.per_seed == tuple(
            m for seed, m in zip(serial_overhead.seeds, serial_overhead.per_seed)
            if seed != 4
        )
        rows = format_overhead(measured).splitlines()
        assert f"4      quarantined after {failure.attempts} attempt(s): error" in rows

    def test_every_seed_poisoned_fails_loudly(self, tmp_path):
        plan = FaultPlan(poison_seeds=(0, 1), marker_dir=str(tmp_path))
        with plan.activated():
            with pytest.raises(SweepExecutionError) as excinfo:
                measure_setup_overhead(
                    paper_grid(11), seeds=(0, 1), setup_periods=30, workers=2
                )
        assert excinfo.value.seeds == (0, 1)

    def test_protocol_error_raised_serially_quarantined_pooled(self):
        """A seed whose setup fails raises in a serial run; a pooled run
        quarantines it like any other failing seed (here every seed fails,
        so the pooled run raises ``SweepExecutionError``)."""
        kwargs = dict(seeds=(0, 1), search_distance=2, setup_periods=5)
        with pytest.raises(ProtocolError):
            measure_setup_overhead(GridTopology(5), **kwargs)
        with pytest.raises(SweepExecutionError) as excinfo:
            measure_setup_overhead(GridTopology(5), workers=2, **kwargs)
        assert "ProtocolError" in str(excinfo.value)

    def test_cli_exit_codes(self, tmp_path, capsys):
        argv = ["overhead", "--size", "11", "--setup-periods", "30", "--workers", "2"]
        with FaultPlan(poison_seeds=(1,)).activated():
            assert main(argv + ["--seeds", "3"]) == EXIT_QUARANTINED
        captured = capsys.readouterr()
        assert "1      quarantined after" in captured.out
        assert "quarantined after retries: [1]" in captured.err
        with FaultPlan(poison_seeds=(0, 1)).activated():
            assert main(argv + ["--seeds", "2"]) == EXIT_SWEEP_FAILED
        assert "sweep failed" in capsys.readouterr().err


class TestSweepCheckpoint:
    def test_append_load_round_trip(self, grid5, config, tmp_path):
        store = SweepCheckpoint(tmp_path)
        key = store.key_for(grid5, config)
        runner = ExperimentRunner(grid5)
        expected = {}
        for seed in (0, 3, 5):
            result = runner.run_once(config, seed)
            store.append(key, seed, result)
            expected[seed] = result
        assert store.load(key) == expected

    def test_key_canonicalises_seed_range_but_not_kernels(
        self, grid5, config
    ):
        store = SweepCheckpoint("unused-root")
        key = store.key_for(grid5, config)
        widened = replace(config, repeats=50, base_seed=10)
        assert store.key_for(grid5, widened) == key
        legacy = replace(config, kernel="legacy")
        assert store.key_for(grid5, legacy) != key
        other_alg = replace(config, algorithm=SLP, search_distance=1)
        assert store.key_for(grid5, other_alg) != key

    def test_torn_trailing_line_skipped(self, grid5, config, tmp_path):
        store = SweepCheckpoint(tmp_path)
        key = store.key_for(grid5, config)
        result = ExperimentRunner(grid5).run_once(config, 0)
        store.append(key, 0, result)
        with store.path_for(key).open("a") as handle:
            handle.write('{"seed": 1, "result": {"cap')  # torn write
        assert store.load(key) == {0: result}

    def test_resume_is_bit_identical(self, grid5, config, serial, tmp_path):
        store = SweepCheckpoint(tmp_path)
        runner = ExperimentRunner(grid5)
        key = store.key_for(grid5, config)
        # Simulate an interrupted sweep: only some seeds on record.
        for seed in (0, 1, 4, 6):
            store.append(key, seed, runner.run_once(config, seed))
        resumed = runner.run(config, checkpoint=store, resume=True)
        assert resumed.results == serial.results
        assert resumed.stats == serial.stats
        # And the store now holds the full sweep for the next resume.
        assert set(store.load(key)) == set(range(config.repeats))

    def test_no_resume_clears_stale_results(self, grid5, config, tmp_path):
        store = SweepCheckpoint(tmp_path)
        runner = ExperimentRunner(grid5)
        key = store.key_for(grid5, config)
        bogus = replace(
            runner.run_once(config, 0), messages_sent=999999
        )
        store.append(key, 3, bogus)
        outcome = runner.run(config, checkpoint=store, resume=False)
        assert outcome.results == ExperimentRunner(grid5).run(config).results

    def test_parallel_resume_matches_serial(self, grid5, config, serial, tmp_path):
        store = SweepCheckpoint(tmp_path)
        key = store.key_for(grid5, config)
        serial_runner = ExperimentRunner(grid5)
        for seed in (2, 7):
            store.append(key, seed, serial_runner.run_once(config, seed))
        runner = ExperimentRunner(grid5, pool=SeedPool(workers=2))
        outcome = runner.run(config, checkpoint=store, resume=True)
        assert outcome.results == serial.results


class TestDivergenceGuard:
    def test_sample_is_deterministic_and_bounded(self):
        seeds = list(range(20))
        assert guard_sample(seeds, 3, 0) == guard_sample(seeds, 3, 0)
        assert len(guard_sample(seeds, 3, 0)) == 3
        assert guard_sample(seeds, 50, 0) == tuple(range(20))
        assert guard_sample([], 3, 0) == ()

    def test_clean_sweep_not_degraded(self, grid5, config, serial):
        runner = ExperimentRunner(grid5)
        outcome = runner.run(config, guard="differential")
        assert outcome.guard is not None
        assert not outcome.guard.degraded
        assert outcome.guard.mismatched_seeds == ()
        assert outcome.results == serial.results

    def test_divergence_detected_and_degraded(
        self, grid5, config, serial, tmp_path
    ):
        plan = FaultPlan(perturb_seeds=tuple(range(config.repeats)))
        store = SweepCheckpoint(tmp_path / "store")
        with plan.activated():
            runner = ExperimentRunner(grid5)
            outcome = runner.run(config, checkpoint=store, guard="differential")
        guard = outcome.guard
        assert guard.degraded
        assert guard.mismatched_seeds
        # The bundle lands beside the checkpoint store it audited.
        assert Path(guard.bundle_path).parent == store.root / "divergence"
        bundle = json.loads(Path(guard.bundle_path).read_text())
        assert bundle["mismatches"]
        first = bundle["mismatches"][0]
        assert first["fast"]["messages_sent"] == first["legacy"]["messages_sent"] + 1
        # The degraded re-run went through the legacy engines, whose
        # results the perturbation cannot touch.
        assert outcome.results == serial.results

    def test_invalid_guard_mode_rejected(self, grid5, config):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(grid5).run(config, guard="nonsense")


class TestScenarioReports:
    def test_clean_report_has_no_failure_sections(self):
        outcome = ScenarioRunner(workers=1).run("paper-baseline", seeds=3)
        report = outcome.to_dict()
        assert "failures" not in report
        assert "guard" not in report

    def test_run_seeds_skips_quarantined(self, grid5, config, tmp_path):
        plan = FaultPlan(poison_seeds=(2,), marker_dir=str(tmp_path))
        outcome = sweep_with_plan(grid5, config, plan)
        # Splice the engine outcome into a scenario-shaped check via the
        # seed bookkeeping only: seeds 0..7 minus the quarantined 2.
        assert [f.seed for f in outcome.failures] == [2]
        assert len(outcome.results) == config.repeats - 1


class TestLifecycleHardening:
    def test_default_workers_survives_unknown_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1

    def test_no_worker_outlives_a_sweep(self, grid5, config):
        ExperimentRunner(grid5, pool=SeedPool(workers=2)).run(config)
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_mid_sweep_reaps_workers(self, grid5, config):
        def interrupt(seed, result):
            raise KeyboardInterrupt

        runner = ExperimentRunner(grid5, pool=SeedPool(workers=2))
        with pytest.raises(KeyboardInterrupt):
            runner.run(config, on_result=interrupt)
        assert multiprocessing.active_children() == []

    def test_chunk_timeout_validated(self, grid5):
        with pytest.raises(ConfigurationError):
            SeedPool(workers=2, chunk_timeout=0.0)


class TestErrors:
    def test_sweep_failed_shape(self):
        error = sweep_failed("Runner", [3, 4], 3, "InjectedFault: poison")
        assert error.seeds == (3, 4)
        assert error.attempts == 3
        assert "seeds [3, 4]" in str(error)
        assert "3 attempt(s)" in str(error)


class TestCliExitCodes:
    def test_quarantined_seeds_exit_code(self, tmp_path, capsys, pooled_sweeps):
        plan = FaultPlan(poison_seeds=(1,), marker_dir=str(tmp_path))
        with plan.activated():
            rc = main(
                [
                    "figure5",
                    "--sizes",
                    "11",
                    "--repeats",
                    "3",
                    "--workers",
                    "2",
                ]
            )
        assert rc == EXIT_QUARANTINED
        assert "quarantined" in capsys.readouterr().err
        assert pooled_sweeps == [2, 2]

    def test_total_failure_exit_code(self, tmp_path, capsys, pooled_sweeps):
        plan = FaultPlan(poison_seeds=(0, 1), marker_dir=str(tmp_path))
        with plan.activated():
            rc = main(
                [
                    "figure5",
                    "--sizes",
                    "11",
                    "--repeats",
                    "2",
                    "--workers",
                    "2",
                ]
            )
        assert rc == EXIT_SWEEP_FAILED
        assert "sweep failed" in capsys.readouterr().err
        assert pooled_sweeps == [2]

    def test_clean_run_exits_zero(self, tmp_path):
        store = tmp_path / "ckpt"
        rc = main(
            [
                "figure5",
                "--sizes",
                "11",
                "--repeats",
                "2",
                "--checkpoint",
                str(store),
            ]
        )
        assert rc == 0
        assert list(store.glob("sweep-*.jsonl"))
        # Resuming re-reads every seed from the store.
        assert main(
            [
                "figure5",
                "--sizes",
                "11",
                "--repeats",
                "2",
                "--checkpoint",
                str(store),
                "--resume",
            ]
        ) == 0
