"""Tests for the metrics package."""

import pytest

from repro.app import OperationalResult
from repro.errors import ConfigurationError
from repro.metrics import (
    MessageOverhead,
    aggregation_stats,
    capture_stats,
)


def make_result(captured=False, capture_period=None, path=(0,), ratio=1.0):
    return OperationalResult(
        captured=captured,
        capture_period=capture_period,
        capture_time=float(capture_period) if capture_period else None,
        periods_run=8,
        safety_periods=8,
        attacker_path=tuple(path),
        messages_sent=100,
        aggregation_ratio=ratio,
    )


class TestCaptureStats:
    def test_ratio(self):
        results = [make_result(captured=True, capture_period=3, path=(0, 1))] * 3
        results += [make_result()] * 7
        stats = capture_stats(results)
        assert stats.runs == 10
        assert stats.captures == 3
        assert stats.capture_ratio == pytest.approx(0.3)

    def test_mean_capture_period(self):
        results = [
            make_result(captured=True, capture_period=2, path=(0, 1)),
            make_result(captured=True, capture_period=4, path=(0, 1)),
            make_result(),
        ]
        assert capture_stats(results).mean_capture_period == pytest.approx(3.0)

    def test_no_captures(self):
        stats = capture_stats([make_result()] * 5)
        assert stats.capture_ratio == 0.0
        assert stats.mean_capture_period is None

    def test_mean_moves(self):
        results = [make_result(path=(0, 1, 2)), make_result(path=(0,))]
        assert capture_stats(results).mean_attacker_moves == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            capture_stats([])

    def test_reduction_versus(self):
        base = capture_stats(
            [make_result(captured=True, capture_period=1, path=(0, 1))] * 4
            + [make_result()] * 6
        )
        slp = capture_stats(
            [make_result(captured=True, capture_period=1, path=(0, 1))] * 2
            + [make_result()] * 8
        )
        assert slp.reduction_versus(base) == pytest.approx(0.5)

    def test_reduction_versus_zero_baseline(self):
        base = capture_stats([make_result()] * 3)
        slp = capture_stats([make_result()] * 3)
        assert slp.reduction_versus(base) == 0.0


class TestOverhead:
    def test_factor_and_percent(self):
        o = MessageOverhead(baseline_messages=1000, slp_messages=1050)
        assert o.extra_messages == 50
        assert o.overhead_factor == pytest.approx(1.05)
        assert o.overhead_percent == pytest.approx(5.0)

    def test_zero_baseline(self):
        assert MessageOverhead(0, 0).overhead_factor == 1.0
        assert MessageOverhead(0, 10).overhead_factor == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            MessageOverhead(-1, 0)

    def test_summary_mentions_counts(self):
        o = MessageOverhead(100, 110, search_messages=4, change_messages=6)
        text = o.summary()
        assert "110" in text and "search=4" in text and "change=6" in text


class TestAggregationStats:
    def test_basic(self):
        results = [make_result(ratio=r) for r in (1.0, 0.8, 0.9)]
        stats = aggregation_stats(results)
        assert stats.mean_ratio == pytest.approx(0.9)
        assert stats.min_ratio == pytest.approx(0.8)
        # The population deviation: sqrt(((0.1)^2 + (0.1)^2 + 0) / 3).
        assert stats.std_ratio == pytest.approx(0.08164965809277258)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregation_stats([])
