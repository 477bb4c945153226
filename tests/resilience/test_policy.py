"""Tests for RetryPolicy backoff arithmetic and determinism."""

import pytest

from repro.resilience import RetryPolicy
from repro.ports.rng import RngStream


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0,
                             jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_max_delay_caps_growth(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0,
                             jitter=0.0)
        assert policy.backoff(5) == 2.0

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                             jitter=0.25)
        rng = RngStream(3, "jitter")
        for attempt in range(1, 50):
            delay = policy.backoff(1, rng)
            assert 0.75 <= delay <= 1.25

    def test_jitter_deterministic_per_seed(self):
        policy = RetryPolicy()
        seq_a = [policy.backoff(a, RngStream(7, "r").child(str(a)))
                 for a in range(1, 5)]
        seq_b = [policy.backoff(a, RngStream(7, "r").child(str(a)))
                 for a in range(1, 5)]
        assert seq_a == seq_b

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_delay=0.5, jitter=0.5)
        assert policy.backoff(1) == 0.5

    def test_total_backoff_budget(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, multiplier=2.0,
                             max_delay=10.0, jitter=0.0)
        assert policy.total_backoff_budget() == pytest.approx(0.1 + 0.2)


class TestValidation:
    def test_no_retries_preset(self):
        assert RetryPolicy.no_retries().max_attempts == 1

    def test_aggressive_preset_has_deadline(self):
        assert RetryPolicy.aggressive().attempt_timeout is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"max_delay": 0.01, "base_delay": 0.05},
            {"jitter": 1.0},
            {"attempt_timeout": 0.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_rejects_bad_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)
