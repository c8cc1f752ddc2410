"""The declarative scenario subsystem: specs, registry, runner, CLI.

The load-bearing contracts:

* every registered scenario sweeps serial/parallel **bit-identically**
  (same per-run results, same bytes of JSON report);
* ``paper-baseline`` reproduces the plain :class:`ExperimentRunner`
  results exactly — the scenario layer adds workloads, it does not
  perturb the paper's;
* spec validation names the offending field and value.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    format_comparison,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.topology import paper_grid

#: Seeds per scenario for the identity sweep — small but non-trivial.
IDENTITY_SEEDS = 2


# ----------------------------------------------------------------------
# TopologySpec
# ----------------------------------------------------------------------
class TestTopologySpec:
    def test_families_build(self):
        assert TopologySpec("grid", 5).build().num_nodes == 25
        assert TopologySpec("line", 5).build().num_nodes == 5
        assert TopologySpec("ring", 8).build().num_nodes == 8

    def test_grid_placements(self):
        spec = TopologySpec("grid", 5)
        assert spec.resolve_placement("top-left") == 0
        assert spec.resolve_placement("top-right") == 4
        assert spec.resolve_placement("bottom-left") == 20
        assert spec.resolve_placement("bottom-right") == 24
        assert spec.resolve_placement("centre") == 12
        assert spec.resolve_placement(7) == 7

    def test_validation_names_field_and_value(self):
        with pytest.raises(ConfigurationError, match=r"TopologySpec\.family='torus'"):
            TopologySpec("torus", 5)
        with pytest.raises(ConfigurationError, match=r"TopologySpec\.size=1"):
            TopologySpec("grid", 1)

    def test_bad_placements_name_the_value(self):
        spec = TopologySpec("grid", 5)
        with pytest.raises(ConfigurationError, match="'north-pole'"):
            spec.resolve_placement("north-pole")
        with pytest.raises(ConfigurationError, match="=25:"):
            spec.resolve_placement(25)
        with pytest.raises(ConfigurationError, match="'top-left'"):
            TopologySpec("ring", 8).resolve_placement("top-left")


# ----------------------------------------------------------------------
# ScenarioSpec
# ----------------------------------------------------------------------
class TestScenarioSpec:
    def test_defaults_are_the_paper_workload(self):
        spec = ScenarioSpec(name="x")
        assert spec.resolved_sources() == (0,)
        assert spec.workload_kind() == "static"
        plan = spec.source_plan()
        assert plan.nodes == (0,) and plan.rotation_period is None

    def test_lowering_to_config(self):
        spec = ScenarioSpec(
            name="x",
            topology=TopologySpec("grid", 5),
            sources=("top-left", "top-right"),
            repeats=7,
            base_seed=3,
        )
        config = spec.to_config()
        assert isinstance(config, ExperimentConfig)
        assert config.repeats == 7 and config.base_seed == 3
        assert config.source_plan.nodes == (0, 4)
        assert spec.to_config(repeats=2, base_seed=9).repeats == 2

    def test_primary_source_designated_on_topology(self):
        spec = ScenarioSpec(
            name="x", topology=TopologySpec("grid", 5), sources=(4, 20)
        )
        assert spec.build_topology().source == 4

    def test_validation_names_field_and_value(self):
        with pytest.raises(ConfigurationError, match=r"ScenarioSpec\.name=''"):
            ScenarioSpec(name="")
        with pytest.raises(ConfigurationError, match=r"ScenarioSpec\.algorithm='rot13'"):
            ScenarioSpec(name="x", algorithm="rot13")
        with pytest.raises(ConfigurationError, match=r"ScenarioSpec\.noise='loud'"):
            ScenarioSpec(name="x", noise="loud")
        with pytest.raises(ConfigurationError, match=r"ScenarioSpec\.sources=\(\)"):
            ScenarioSpec(name="x", sources=())
        with pytest.raises(ConfigurationError, match=r"ScenarioSpec\.repeats=0"):
            ScenarioSpec(name="x", repeats=0)
        with pytest.raises(
            ConfigurationError, match=r"ScenarioSpec\.source_rotation_period=0"
        ):
            ScenarioSpec(name="x", sources=(0, 1), source_rotation_period=0)
        with pytest.raises(ConfigurationError, match="at least two placements"):
            ScenarioSpec(name="x", source_rotation_period=2)
        with pytest.raises(ConfigurationError, match="duplicate"):
            ScenarioSpec(name="x", sources=("top-left", 0))

    def test_sink_placements_rejected_eagerly(self):
        # Grid "centre" IS the sink; the spec must refuse it at
        # construction instead of crashing mid-lowering.
        with pytest.raises(ConfigurationError, match="sink"):
            ScenarioSpec(
                name="x", topology=TopologySpec("grid", 5), sources=("centre",)
            )
        with pytest.raises(ConfigurationError, match="sink"):
            ScenarioSpec(
                name="x", topology=TopologySpec("grid", 5), sources=(0, 12)
            )
        with pytest.raises(ConfigurationError, match="sink"):
            ScenarioSpec(
                name="x", topology=TopologySpec("line", 5), sources=(4,)
            )

    def test_perturbations_validated_eagerly(self):
        from repro.app import NodeDeath

        with pytest.raises(
            ConfigurationError, match=r"ScenarioSpec\.perturbations=99"
        ):
            ScenarioSpec(
                name="x",
                topology=TopologySpec("grid", 5),
                perturbations=(NodeDeath(period=1, nodes=(99,)),),
            )
        with pytest.raises(
            ConfigurationError, match=r"ScenarioSpec\.perturbations=12"
        ):
            ScenarioSpec(
                name="x",
                topology=TopologySpec("grid", 5),
                perturbations=(NodeDeath(period=1, nodes=(12,)),),
            )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_gallery_breadth(self):
        names = scenario_names()
        assert len(names) >= 6
        for required in (
            "paper-baseline",
            "two-sources",
            "mobile-source",
            "churn-10pct",
            "strong-attacker",
        ):
            assert required in names

    def test_workload_axes_covered(self):
        kinds = {spec.workload_kind().split("(")[0] for spec in iter_scenarios()}
        assert {"static", "multi", "mobile"} <= kinds
        assert any(spec.perturbations for spec in iter_scenarios())

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(ConfigurationError, match="paper-baseline"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_guarded(self):
        spec = get_scenario("paper-baseline")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scenario(spec)
        assert register_scenario(spec, replace=True) is spec


# ----------------------------------------------------------------------
# Runner determinism
# ----------------------------------------------------------------------
class TestScenarioRunnerDeterminism:
    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_serial_and_parallel_sweeps_are_bit_identical(
        self, name, pooled_sweeps
    ):
        serial = ScenarioRunner(workers=1).run(name, seeds=IDENTITY_SEEDS)
        # The worker policy would (rightly) run a 2-seed sweep serially;
        # this test exists to prove the pool path is bit-identical, so
        # ``pooled_sweeps`` lifts the threshold and the sweep must fork.
        parallel = ScenarioRunner(workers=2).run(name, seeds=IDENTITY_SEEDS)
        assert pooled_sweeps == [2]
        assert serial.results == parallel.results
        assert serial.stats == parallel.stats
        assert serial.per_source == parallel.per_source
        assert serial.first_capture == parallel.first_capture
        assert serial.to_json() == parallel.to_json()
        assert serial.to_jsonl() == parallel.to_jsonl()

    def test_paper_baseline_reproduces_experiment_runner_exactly(self):
        scenario = ScenarioRunner().run("paper-baseline", seeds=3)
        plain = ExperimentRunner(paper_grid(11)).run(ExperimentConfig(repeats=3))
        assert scenario.results == tuple(plain.results)
        assert scenario.stats == plain.stats

    def test_rerun_is_reproducible(self):
        first = ScenarioRunner().run("mobile-source", seeds=2)
        second = ScenarioRunner().run("mobile-source", seeds=2)
        assert first.to_json() == second.to_json()


# ----------------------------------------------------------------------
# Outcome reporting
# ----------------------------------------------------------------------
class TestScenarioOutcome:
    def test_report_shape(self):
        outcome = ScenarioRunner().run("two-sources", seeds=3)
        report = json.loads(outcome.to_json())
        assert report["scenario"] == "two-sources"
        assert report["workload"]["sources"] == [0, 10]
        assert len(report["runs"]) == 3
        assert report["runs"][0]["seed"] == 0
        assert {e["source"] for e in report["per_source"]} == {0, 10}
        assert report["stats"]["runs"] == 3
        assert report["first_capture"]["runs"] == 3

    def test_jsonl_is_one_line_per_run(self):
        outcome = ScenarioRunner().run("paper-baseline", seeds=3)
        lines = outcome.to_jsonl().strip().splitlines()
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines]
        assert [r["seed"] for r in rows] == [0, 1, 2]
        assert all(r["scenario"] == "paper-baseline" for r in rows)

    def test_comparison_table_mentions_every_scenario(self):
        outcomes = ScenarioRunner().compare(
            ["paper-baseline", "two-sources"], seeds=2
        )
        table = format_comparison(outcomes)
        assert "paper-baseline" in table and "two-sources" in table
        assert "multi(2 sources)" in table


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestScenarioCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-baseline" in out and "mobile-source" in out
        assert "scenarios registered" in out

    def test_run_serial_and_parallel_prints_identical_json(self, capsys):
        from repro.cli import main

        assert main(["scenario", "run", "two-sources", "--seeds", "2"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(
                ["scenario", "run", "two-sources", "--seeds", "2", "--workers", "2"]
            )
            == 0
        )
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert json.loads(serial_out)["scenario"] == "two-sources"

    @pytest.mark.parametrize("name", ["churn-10pct", "duty-cycle"])
    def test_legacy_kernel_prints_the_fast_kernels_bytes(self, name, capsys):
        """Node toggles drop cached radio fan-outs mid-run; the legacy
        engine's report must still match the fast kernel's byte for byte."""
        from repro.cli import main

        outputs = []
        for extra in ([], ["--legacy-kernel"]):
            assert main(["scenario", "run", name, "--seeds", "2", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["scenario"] == name

    def test_run_jsonl_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "runs.jsonl"
        assert (
            main(
                [
                    "scenario", "run", "paper-baseline",
                    "--seeds", "2", "--jsonl", "--out", str(out_file),
                ]
            )
            == 0
        )
        capsys.readouterr()  # drain the "wrote ..." notice
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["scenario"] == "paper-baseline"

    def test_compare(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "scenario", "compare", "paper-baseline", "churn-10pct",
                    "--seeds", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "churn-10pct" in out and "capture" in out
