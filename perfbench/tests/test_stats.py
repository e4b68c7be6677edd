"""The benchmark's reporting rules: percentiles, goodput, failures."""

import numpy as np
import pytest

import loadgen
import stats


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert stats.samples_beyond(1000, 99) == 10
        assert stats.samples_beyond(999, 99) == 9
        values = np.arange(1000.0)
        assert stats.percentile(values, 99) == pytest.approx(np.percentile(values, 99))
        with pytest.raises(stats.RunTooShort):
            stats.percentile(values[:999], 99)

    def test_median_needs_only_a_sample(self):
        assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
        with pytest.raises(stats.RunTooShort):
            stats.percentile([], 50)
        with pytest.raises(stats.RunTooShort):
            stats.median([])


def _rung(rate, sent=200, ok=200, backlog=0):
    return stats.Rung(rate, sent, ok, backlog, ok_rps=rate * ok / sent)


class TestGoodput:
    def test_highest_rung_with_every_lower_rung_passing(self):
        rungs = [_rung(50), _rung(100), _rung(150, ok=150), _rung(200)]
        best = stats.goodput(rungs, min_ok=0.99, max_backlog=16)
        assert best.rate == 100

    def test_rung_order_does_not_matter(self):
        rungs = [_rung(200, ok=10), _rung(100), _rung(50)]
        assert stats.goodput(rungs, 0.99, 16).rate == 100

    def test_share_threshold_is_inclusive(self):
        assert stats.rung_passes(_rung(50, sent=100, ok=99), 0.99, 16)
        assert not stats.rung_passes(_rung(50, sent=100, ok=98), 0.99, 16)

    def test_growing_backlog_fails_a_rung(self):
        rungs = [_rung(50), _rung(100, backlog=17)]
        assert stats.goodput(rungs, 0.99, 16).rate == 50

    def test_no_passing_rung(self):
        assert stats.goodput([_rung(50, ok=0)], 0.99, 16) is None
        assert stats.goodput([], 0.99, 16) is None


class TestFailures:
    def test_streams_not_run_to_their_budget_and_sheds_fail(self):
        reasons = ["length", "eos", "cancelled", "length", "error"]
        n = stats.failures(reasons, shed=2)
        assert n == 3 + 2
        assert stats.failed_frac(n, len(reasons) + 2) == pytest.approx(5 / 7)

    def test_quarantined_trials_fail(self):
        assert stats.failures(quarantined=3) == 3
        assert stats.failed_frac(stats.failures(quarantined=0), 3) == 0.0

    def test_nothing_sent(self):
        with pytest.raises(ValueError):
            stats.failed_frac(0, 0)


class TestSchedule:
    def test_exact_count_sorted_within_duration(self):
        offsets, picks = loadgen.schedule(np.random.default_rng(3), 40.0, 2.5, 7)
        assert len(offsets) == len(picks) == 100
        assert np.all(np.diff(offsets) >= 0)
        assert offsets[0] >= 0 and offsets[-1] < 2.5
        assert picks.min() >= 0 and picks.max() < 7

    def test_same_seed_same_schedule(self):
        a = loadgen.schedule(np.random.default_rng(5), 10.0, 3.0, 4)
        b = loadgen.schedule(np.random.default_rng(5), 10.0, 3.0, 4)
        c = loadgen.schedule(np.random.default_rng(6), 10.0, 3.0, 4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])


def test_tail_reports_the_highest_supported_percentile():
    assert stats.tail(np.arange(1000.0))["p"] == 99
    assert stats.tail(np.arange(999.0))["p"] == 98
    assert stats.tail(np.arange(200.0)) == {
        "p": 95, "value": pytest.approx(np.percentile(np.arange(200.0), 95)),
        "samples": 200,
    }
    assert stats.tail(np.arange(50.0)) is None


def test_rate_is_total_work_over_total_wall():
    parts = [{"wall": 1.0, "trials": 100}, {"wall": 3.0, "trials": 100}]
    assert stats.rate(parts, "trials") == pytest.approx(200 / 4.0)
