"""Tests for the sanctioned host-clock API (repro.sim.hostclock)."""

import pytest

from repro.sim import hostclock
from repro.sim.hostclock import host_cpu_now, host_perf_now, installed_host_clock


class TestRealSources:
    def test_perf_now_is_monotonic_float(self):
        a = host_perf_now()
        b = host_perf_now()
        assert isinstance(a, float)
        assert b >= a

    def test_cpu_now_is_nondecreasing_float(self):
        a = host_cpu_now()
        # burn a little CPU so the reading can only move forward
        sum(i * i for i in range(1000))
        b = host_cpu_now()
        assert isinstance(a, float)
        assert b >= a


class TestSetAndReset:
    """``installed_host_clock`` sets either source and resets both on exit."""

    def test_set_host_clock_replaces_sources(self):
        with installed_host_clock(perf=lambda: 11.0, cpu=lambda: 22.0):
            assert host_perf_now() == 11.0
            assert host_cpu_now() == 22.0

    def test_set_host_clock_partial(self):
        with installed_host_clock(cpu=lambda: 5.0):
            assert host_cpu_now() == 5.0
            # perf source untouched: still the real clock, strictly positive
            assert host_perf_now() > 0.0

    def test_reset_restores_real_clock(self):
        with installed_host_clock(perf=lambda: -1.0, cpu=lambda: -1.0):
            pass
        assert host_perf_now() > 0.0
        assert host_cpu_now() >= 0.0


class TestInstalledHostClock:
    def test_swaps_and_restores(self):
        before_perf = hostclock._perf_source
        before_cpu = hostclock._cpu_source
        with installed_host_clock(perf=lambda: 1.5, cpu=lambda: 2.5):
            assert host_perf_now() == 1.5
            assert host_cpu_now() == 2.5
        assert hostclock._perf_source is before_perf
        assert hostclock._cpu_source is before_cpu

    def test_restores_on_exception(self):
        before = (hostclock._perf_source, hostclock._cpu_source)
        with pytest.raises(RuntimeError):
            with installed_host_clock(perf=lambda: 0.0):
                raise RuntimeError("boom")
        assert (hostclock._perf_source, hostclock._cpu_source) == before

    def test_nested_installs_unwind_in_order(self):
        with installed_host_clock(cpu=lambda: 1.0):
            with installed_host_clock(cpu=lambda: 2.0):
                assert host_cpu_now() == 2.0
            assert host_cpu_now() == 1.0

    def test_fake_cpu_clock_drives_deterministic_measurement(self):
        # the profiler's pattern: a counter-backed fake makes host-time
        # consumers fully deterministic under test
        ticks = iter(0.001 * i for i in range(100))
        with installed_host_clock(cpu=lambda: next(ticks)):
            start = host_cpu_now()
            end = host_cpu_now()
        assert end - start == pytest.approx(0.001)
