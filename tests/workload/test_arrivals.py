"""Tests for query arrival processes."""

import numpy as np
import pytest

from repro.ports.rng import RngStream
from repro.workload.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)


class TestPoisson:
    def test_rate_approximated(self):
        times = poisson_arrivals(10.0, 1000.0, RngStream(1, "a"))
        assert times.size == pytest.approx(10_000, rel=0.1)

    def test_sorted_within_horizon(self):
        times = poisson_arrivals(5.0, 100.0, RngStream(2, "a"))
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0
        assert times.max() < 100.0

    def test_deterministic(self):
        a = poisson_arrivals(3.0, 50.0, RngStream(7, "a"))
        b = poisson_arrivals(3.0, 50.0, RngStream(7, "a"))
        assert (a == b).all()

    def test_exponential_gaps(self):
        times = poisson_arrivals(10.0, 5000.0, RngStream(3, "a"))
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(0.1, rel=0.05)
        # memoryless: cv of exponential is 1
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0, "duration": 10.0},
        {"rate": 1.0, "duration": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            poisson_arrivals(rng=RngStream(1, "a"), **kwargs)


class TestSeededDeterminism:
    """Every generator replays bit-identically from an equal-seed stream
    and diverges under a different seed -- the property the churn soak's
    double-run determinism gate rests on."""

    def test_diurnal_deterministic(self):
        a = diurnal_arrivals(2.0, 8.0, 5000.0, RngStream(11, "d"))
        b = diurnal_arrivals(2.0, 8.0, 5000.0, RngStream(11, "d"))
        assert (a == b).all()

    def test_bursty_deterministic(self):
        a = bursty_arrivals(1.0, 10.0, 5000.0, RngStream(12, "b"))
        b = bursty_arrivals(1.0, 10.0, 5000.0, RngStream(12, "b"))
        assert (a == b).all()

    @pytest.mark.parametrize("make", [
        lambda seed: poisson_arrivals(3.0, 2000.0, RngStream(seed, "p")),
        lambda seed: diurnal_arrivals(2.0, 8.0, 2000.0, RngStream(seed, "d")),
        lambda seed: bursty_arrivals(1.0, 10.0, 2000.0, RngStream(seed, "b")),
    ], ids=["poisson", "diurnal", "bursty"])
    def test_different_seed_diverges(self, make):
        a = make(21)
        c = make(22)
        assert a.size != c.size or not (a == c).all()


class TestRateEnvelopes:
    """Long-horizon empirical rates stay inside the configured envelope:
    a Poisson process at its rate, modulated processes strictly between
    their trough and peak rates."""

    HORIZON = 50_000.0

    def test_poisson_rate_envelope(self):
        times = poisson_arrivals(4.0, self.HORIZON, RngStream(31, "p"))
        assert times.size / self.HORIZON == pytest.approx(4.0, rel=0.05)

    def test_diurnal_rate_envelope(self):
        base, peak = 1.0, 9.0
        times = diurnal_arrivals(
            base, peak, self.HORIZON, RngStream(32, "d")
        )
        mean_rate = times.size / self.HORIZON
        assert base < mean_rate < peak
        # thinning targets the sinusoid's mean rate
        assert mean_rate == pytest.approx((base + peak) / 2, rel=0.1)

    def test_bursty_rate_envelope(self):
        quiet, burst = 1.0, 10.0
        mean_quiet, mean_burst = 200.0, 50.0
        times = bursty_arrivals(
            quiet, burst, self.HORIZON, RngStream(33, "b"),
            mean_quiet_seconds=mean_quiet, mean_burst_seconds=mean_burst,
        )
        mean_rate = times.size / self.HORIZON
        assert quiet < mean_rate < burst
        # two-state modulation: time-weighted mixture of the two rates
        expected = (quiet * mean_quiet + burst * mean_burst) / (
            mean_quiet + mean_burst
        )
        assert mean_rate == pytest.approx(expected, rel=0.15)


class TestDiurnal:
    def test_mean_rate_between_base_and_peak(self):
        times = diurnal_arrivals(2.0, 10.0, 86_400.0, RngStream(4, "d"))
        mean_rate = times.size / 86_400.0
        assert 2.0 < mean_rate < 10.0
        assert mean_rate == pytest.approx(6.0, rel=0.1)

    def test_midday_busier_than_midnight(self):
        times = diurnal_arrivals(1.0, 20.0, 86_400.0, RngStream(5, "d"))
        night = np.sum(times < 3 * 3600)  # trough is at t=0
        midday = np.sum((times >= 39_600) & (times < 50_400))  # around t=12h
        assert midday > 3 * night

    def test_sorted_within_horizon(self):
        times = diurnal_arrivals(1.0, 6.0, 10_000.0, RngStream(8, "d"))
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0
        assert times.max() < 10_000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_arrivals(5.0, 2.0, 100.0, RngStream(1, "d"))
        with pytest.raises(ValueError):
            diurnal_arrivals(1.0, 2.0, 100.0, RngStream(1, "d"), period=0)


class TestBursty:
    def test_burstier_than_poisson(self):
        """Index of dispersion of per-minute counts must exceed Poisson's 1."""
        rng = RngStream(6, "b")
        times = bursty_arrivals(1.0, 50.0, 20_000.0, rng,
                                mean_quiet_seconds=200.0,
                                mean_burst_seconds=20.0)
        counts = np.bincount((times // 60).astype(int))
        dispersion = counts.var() / counts.mean()
        assert dispersion > 3.0

    def test_sorted_and_bounded(self):
        times = bursty_arrivals(1.0, 20.0, 1000.0, RngStream(7, "b"))
        assert (np.diff(times) >= 0).all()
        assert times.max() < 1000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_arrivals(5.0, 2.0, 100.0, RngStream(1, "b"))
        with pytest.raises(ValueError):
            bursty_arrivals(1.0, 2.0, 100.0, RngStream(1, "b"),
                            mean_quiet_seconds=0)


class TestWithConcurrentCoordinator:
    def test_arrivals_drive_run_concurrent(self):
        from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
        from repro.presto.catalog import Catalog, build_table
        from repro.storage.remote import NullDataSource

        MIB = 1024 * 1024
        catalog = Catalog()
        table = build_table("s", "t", n_partitions=2, files_per_partition=1,
                            file_size=1 * MIB, n_columns=8, n_row_groups=4)
        catalog.add_table(table)
        source = NullDataSource()
        for __, f in table.all_files():
            source.add_file(f.file_id, f.size)
        cluster = PrestoCluster.create(
            catalog, source, n_workers=2, cache_capacity_bytes=16 * MIB,
            page_size=256 * 1024, target_split_size=1 * MIB,
        )
        times = poisson_arrivals(0.5, 60.0, RngStream(9, "arr"))
        template = QueryProfile(
            query_id="q",
            scans=(TableScan(table="s.t", partition_fraction=1.0,
                             profile=ScanProfile(columns_read=2,
                                                 row_group_selectivity=1.0)),),
            compute_seconds=0.1,
        )
        arrivals = [
            (float(t), QueryProfile(query_id=f"q{i}", scans=template.scans,
                                    compute_seconds=0.1))
            for i, t in enumerate(times)
        ]
        results = cluster.coordinator.run_concurrent_kernel(arrivals)
        assert len(results) == times.size
        assert all(r.wall_seconds > 0 for r in results)
