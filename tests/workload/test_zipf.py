"""Tests for Zipf sampling and exponent fitting."""

import numpy as np
import pytest

from repro.ports.rng import RngStream
from repro.workload.zipf import ZipfSampler, fit_zipf_exponent


class TestZipfSampler:
    def test_bounded_support(self):
        sampler = ZipfSampler(100, 1.2, RngStream(1, "z"))
        samples = sampler.sample(10_000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(1000, 1.39, RngStream(1, "z"))
        samples = sampler.sample(50_000)
        counts = np.bincount(samples, minlength=1000)
        assert counts[0] == counts.max()
        assert counts[0] > counts[100]

    def test_s_zero_is_uniform(self):
        sampler = ZipfSampler(10, 0.0, RngStream(1, "z"))
        counts = np.bincount(sampler.sample(50_000), minlength=10)
        assert counts.min() > 0.8 * counts.max()

    def test_deterministic(self):
        a = ZipfSampler(100, 1.0, RngStream(7, "z")).sample(100)
        b = ZipfSampler(100, 1.0, RngStream(7, "z")).sample(100)
        assert (a == b).all()

    def test_empirical_share_matches_expected(self):
        sampler = ZipfSampler(500, 1.2, RngStream(3, "z"))
        samples = sampler.sample(200_000)
        empirical = (samples < 50).mean()
        weights = 1.0 / np.arange(1, 501) ** 1.2
        expected = weights[:50].sum() / weights.sum()
        assert empirical == pytest.approx(expected, abs=0.02)

    def test_validation(self):
        rng = RngStream(1, "z")
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.5, rng)
        with pytest.raises(ValueError):
            ZipfSampler(10, 1.0, rng).sample(-1)


class TestFit:
    def test_recovers_known_exponent(self):
        """Generate from Zipf(1.39) -- the paper's factor -- and re-fit."""
        sampler = ZipfSampler(2000, 1.39, RngStream(11, "z"))
        samples = sampler.sample(500_000)
        counts = np.bincount(samples, minlength=2000)
        fit = fit_zipf_exponent(counts, min_count=5)
        assert fit.s == pytest.approx(1.39, abs=0.15)
        assert fit.r_squared > 0.95

    def test_uniform_fits_near_zero(self):
        counts = np.full(100, 1000)
        fit = fit_zipf_exponent(counts)
        assert abs(fit.s) < 0.05

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError):
            fit_zipf_exponent([5])
        with pytest.raises(ValueError):
            fit_zipf_exponent([5, 0], min_count=1)

    def test_accepts_lists(self):
        fit = fit_zipf_exponent([100, 50, 33, 25, 20])
        assert fit.s == pytest.approx(1.0, abs=0.05)
        assert fit.n_ranks == 5
