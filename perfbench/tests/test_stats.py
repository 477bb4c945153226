"""The benchmark's arithmetic, checked without running the program."""

import pytest

from perfbench import stats


def test_p99_stands_with_ten_samples_beyond():
    samples = list(range(1, 1001))
    value, effective = stats.percentile(samples, 99.0)
    assert effective == 99.0
    assert value == 990
    assert sum(1 for s in samples if s > value) == stats.MIN_BEYOND


def test_percentile_is_lowered_until_ten_samples_lie_beyond():
    samples = list(range(1, 100))  # the 99 queries of sim_tpcds
    value, effective = stats.percentile(samples, 99.0)
    assert effective == pytest.approx(100.0 * (1 - 10 / 99))
    assert sum(1 for s in samples if s > value) >= stats.MIN_BEYOND
    # the median needs no lowering
    assert stats.percentile(samples, 50.0) == (50, 50.0)


def test_percentile_ignores_input_order_and_rejects_nonsense():
    assert stats.percentile([5.0, 1.0, 3.0] * 10, 50.0)[0] == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101.0)


def test_best_quartile_median_worst_follow_the_metric_direction():
    rate = stats.summarize([90.0, 100.0, 80.0, 70.0, 60.0], better="higher")
    assert (rate.best, rate.quartile, rate.median, rate.worst, rate.n) == (
        100.0, 90.0, 80.0, 60.0, 5
    )
    latency = stats.summarize([1.2, 1.0, 1.5, 1.1, 1.3], better="lower")
    assert (latency.best, latency.quartile, latency.median, latency.worst) == (
        1.0, 1.1, 1.2, 1.5
    )
    # the better quartile sits between the best and the median
    assert stats.summarize([3.0, 1.0], better="lower").quartile == 1.5
    assert stats.summarize([7.0], better="higher").quartile == 7.0
    with pytest.raises(ValueError):
        stats.summarize([], better="lower")
    with pytest.raises(ValueError):
        stats.summarize([1.0], better="faster")
