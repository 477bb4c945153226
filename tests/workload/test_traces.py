"""Tests for the Table-1-calibrated trace generator."""

import pytest

from repro.ports.rng import RngStream
from repro.workload.traces import (
    HostTraceSpec,
    TraceGenerator,
    solve_zipf_exponent_for_share,
    stats_of,
    table1_hosts,
)


def small_spec(**overrides):
    base = dict(
        name="test",
        total_reads=20_000,
        total_writes=100,
        n_blocks=5_000,
        top_k=100,
        top_k_share=0.9,
        duration_seconds=3600.0,
    )
    base.update(overrides)
    return HostTraceSpec(**base)


class TestSpec:
    def test_read_write_ratio(self):
        assert small_spec().read_write_ratio == 200.0
        assert small_spec(total_writes=0).read_write_ratio == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            small_spec(total_reads=0)
        with pytest.raises(ValueError):
            small_spec(top_k_share=0.0)
        with pytest.raises(ValueError):
            small_spec(top_k=0)

    def test_table1_presets_preserve_ratios(self):
        hosts = table1_hosts(scale=0.01)
        assert [h.name for h in hosts] == ["host1", "host2", "host3", "host4"]
        # read/write ratios stay near the published values
        assert hosts[0].read_write_ratio == pytest.approx(4091, rel=0.02)
        assert hosts[3].read_write_ratio == pytest.approx(317.8, rel=0.02)
        assert [h.top_k_share for h in hosts] == [0.89, 0.94, 0.99, 0.99]


class TestExponentSolver:
    def test_monotone_target(self):
        low = solve_zipf_exponent_for_share(10_000, 100, 0.5)
        high = solve_zipf_exponent_for_share(10_000, 100, 0.95)
        assert high > low > 0

    def test_solution_achieves_share(self):
        import numpy as np

        s = solve_zipf_exponent_for_share(5_000, 100, 0.9)
        weights = np.arange(1, 5_001, dtype=float) ** (-s)
        share = weights[:100].sum() / weights.sum()
        assert share == pytest.approx(0.9, abs=0.01)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            solve_zipf_exponent_for_share(100, 10, 1.0)


class TestGenerator:
    def test_counts_match_spec(self):
        spec = small_spec()
        trace = TraceGenerator(spec, RngStream(5, "t")).generate()
        stats = stats_of(trace)
        assert stats.total_reads == spec.total_reads
        assert stats.total_writes == spec.total_writes

    def test_timestamps_ordered_within_duration(self):
        spec = small_spec()
        trace = TraceGenerator(spec, RngStream(5, "t")).generate()
        times = [a.timestamp for a in trace]
        assert times == sorted(times)
        assert 0 <= times[0] and times[-1] <= spec.duration_seconds

    def test_top_k_share_calibrated(self):
        spec = small_spec(top_k_share=0.9)
        trace = TraceGenerator(spec, RngStream(5, "t")).generate()
        stats = stats_of(trace)
        assert stats.top_k_share(spec.top_k) == pytest.approx(0.9, abs=0.03)

    def test_read_sizes_bounded(self):
        spec = small_spec()
        trace = TraceGenerator(spec, RngStream(5, "t")).generate()
        for access in trace:
            if access.is_read:
                assert 512 <= access.nbytes <= spec.block_size
            else:
                assert access.nbytes == spec.block_size

    def test_deterministic(self):
        spec = small_spec()
        a = TraceGenerator(spec, RngStream(5, "t")).generate()
        b = TraceGenerator(spec, RngStream(5, "t")).generate()
        assert a == b

    def test_stats_top_k_share_empty(self):
        from repro.workload.traces import TraceStats

        assert TraceStats().top_k_share(10) == 0.0
