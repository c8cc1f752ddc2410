"""Tests for the CLI and the ASCII visualiser."""

import pytest

from repro.cli import build_parser, main
from repro.errors import TopologyError
from repro.visualize import render_attacker_path, render_roles, render_slot_grid


class TestVisualize:
    def test_slot_grid_dimensions(self, grid5, grid5_schedule):
        text = render_slot_grid(grid5, grid5_schedule)
        assert len(text.splitlines()) == 5

    def test_slot_grid_markers(self, grid5, grid5_schedule):
        text = render_slot_grid(grid5, grid5_schedule, highlight=[1, 2])
        assert "(" in text  # sink
        assert "{" in text  # source
        assert "[" in text  # highlighted

    def test_roles_glyphs(self, grid5):
        text = render_roles(
            grid5,
            attacker_path=[grid5.sink, 7],
            decoy_path=[11],
            search_path=[17],
        )
        assert "K" in text and "S" in text
        assert "A" in text and "d" in text and "s" in text
        assert "legend" not in text  # legend is glyph line, not word

    def test_attacker_path_coordinates(self, grid5):
        text = render_attacker_path(grid5, [0, 1])
        assert text == "0(0,0) -> 1(0,1)"

    def test_attacker_path_empty(self, grid5):
        assert render_attacker_path(grid5, []) == "(no movement)"

    def test_attacker_path_unknown_node(self, grid5):
        with pytest.raises(TopologyError):
            render_attacker_path(grid5, [999])


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        for command in ("table1", "figure5", "overhead", "verify", "show"):
            args = parser.parse_args([command] if command == "table1" else [command])
            assert args.command == command

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Psrc" in out and "Change Length" in out

    def test_figure5_quick(self, capsys):
        code = main(
            ["figure5", "--repeats", "2", "--sizes", "11", "--noise", "ideal"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5a" in out

    def test_figure5_kernel_bisection_flags_identical(self, capsys):
        """--legacy-kernel reproduces the default output byte-for-byte
        (the bit-identity contract, end to end)."""
        base_args = ["figure5", "--repeats", "2", "--sizes", "11", "--noise", "ideal"]
        assert main(base_args) == 0
        default_out = capsys.readouterr().out
        assert main(base_args + ["--legacy-kernel"]) == 0
        assert capsys.readouterr().out == default_out

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_overhead_without_seeds_is_a_usage_error(self, seeds, capsys):
        """Same error line and exit status as ``figure5 --repeats 0``."""
        assert main(["overhead", "--size", "11", "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: measure_setup_overhead.seeds=[]")
        assert main(["figure5", "--sizes", "11", "--repeats", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ScenarioSpec.repeats=0")

    def test_verify(self, capsys):
        assert main(["verify", "--size", "11", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "safety period" in out
        assert "protectionless" in out and "slp" in out

    def test_show(self, capsys):
        assert main(["show", "--size", "11", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "slot landscape" in out
        assert "K" in out

    def test_overhead_quick(self, capsys):
        code = main(
            ["overhead", "--size", "11", "--seeds", "1", "--setup-periods", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overhead" in out.lower()
