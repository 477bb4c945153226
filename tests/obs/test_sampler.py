"""Tests for the continuous telemetry sampler (repro.obs.sampler)."""

import json

import pytest

from repro.core.metrics import MetricsRegistry
from repro.obs.sampler import DEFAULT_COUNTERS, TelemetrySampler, format_telemetry
from repro.sim.kernel import Kernel


@pytest.fixture()
def kernel():
    return Kernel()


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    registry.gauge("device_queue_depth").set(2.0)
    registry.counter("get_hits").inc(7)
    registry.counter("get_misses").inc(3)
    return registry


class TestLifecycle:
    def test_interval_must_be_positive(self, kernel, registry):
        with pytest.raises(ValueError, match="interval"):
            TelemetrySampler(kernel, registry, interval=0.0)

    def test_ticks_on_the_virtual_interval(self, kernel, registry):
        sampler = TelemetrySampler(kernel, registry, interval=1.0)
        sampler.start()
        kernel.run_until(3.5)
        sampler.stop()
        kernel.run_all()
        assert sampler.ticks == 3
        assert sampler.series["gauge:device_queue_depth"].timestamps() == [
            1.0, 2.0, 3.0,
        ]

    def test_stop_lets_run_all_quiesce(self, kernel, registry):
        sampler = TelemetrySampler(kernel, registry, interval=1.0)
        sampler.start()
        kernel.run_until(1.5)
        sampler.stop()
        # the pending timer drains without ticking again; run_all returns
        kernel.run_all()
        assert sampler.ticks == 1
        assert sampler.process.done

    def test_start_while_running_raises(self, kernel, registry):
        sampler = TelemetrySampler(kernel, registry, interval=1.0)
        sampler.start()
        with pytest.raises(RuntimeError, match="already running"):
            sampler.start()

    def test_restart_after_quiesce_allowed(self, kernel, registry):
        sampler = TelemetrySampler(kernel, registry, interval=1.0)
        sampler.start()
        sampler.stop()
        kernel.run_all()
        sampler.start()
        kernel.run_until(1.0)
        sampler.stop()
        kernel.run_all()
        assert sampler.ticks == 1


class TestSampling:
    def test_samples_gauges_counters_and_hit_ratio(self, kernel, registry):
        sampler = TelemetrySampler(kernel, registry, interval=1.0)
        sampler.tick()
        assert sampler.series["gauge:device_queue_depth"].values() == [2.0]
        assert sampler.series["counter:get_hits"].values() == [7.0]
        assert sampler.series["derived:hit_ratio"].values() == [0.7]
        for name in DEFAULT_COUNTERS:
            assert f"counter:{name}" in sampler.series

    def test_manual_tick_records_time_zero(self, kernel, registry):
        sampler = TelemetrySampler(kernel, registry, interval=1.0)
        sampler.tick()
        assert sampler.series["derived:hit_ratio"].timestamps() == [0.0]

    def test_capacity_bounds_memory_and_counts_drops(self, kernel, registry):
        sampler = TelemetrySampler(kernel, registry, interval=1.0, capacity=4)
        sampler.start()
        kernel.run_until(10.0)
        buf = sampler.series["derived:hit_ratio"]
        assert len(buf) == 4
        assert buf.dropped == 6
        assert buf.timestamps() == [7.0, 8.0, 9.0, 10.0]

    def test_custom_counter_set(self, kernel, registry):
        sampler = TelemetrySampler(
            kernel, registry, interval=1.0, counters=("evictions",)
        )
        sampler.tick()
        assert "counter:evictions" in sampler.series
        assert "counter:get_hits" not in sampler.series


class TestExports:
    def run_sampled(self, interval=1.0, until=3.0):
        kernel = Kernel()
        registry = MetricsRegistry()
        registry.gauge("blocked_processes").set(1.0)
        registry.counter("get_hits").inc(5)
        registry.counter("get_misses").inc(5)
        sampler = TelemetrySampler(kernel, registry, interval=interval)
        sampler.start()
        kernel.run_until(until)
        sampler.stop()
        kernel.run_all()
        return sampler

    def test_jsonl_is_sorted_and_parseable(self):
        sampler = self.run_sampled()
        lines = sampler.to_jsonl().splitlines()
        rows = [json.loads(line) for line in lines]
        assert all(set(row) == {"metric", "t", "v"} for row in rows)
        metrics = [row["metric"] for row in rows]
        assert metrics == sorted(metrics)
        hits = [row for row in rows if row["metric"] == "counter:get_hits"]
        assert [row["t"] for row in hits] == [1.0, 2.0, 3.0]

    def test_jsonl_byte_identical_across_runs(self):
        assert self.run_sampled().to_jsonl() == self.run_sampled().to_jsonl()

    def test_summary_statistics(self):
        sampler = self.run_sampled()
        row = sampler.summary()["derived:hit_ratio"]
        assert row["samples"] == 3.0
        assert row["dropped"] == 0.0
        assert row["min"] == row["mean"] == row["max"] == row["last"] == 0.5

    def test_format_telemetry_renders_every_metric(self):
        sampler = self.run_sampled()
        text = format_telemetry(sampler)
        assert "ticks=3 interval=1s capacity=1024" in text
        for metric in sampler.series:
            assert metric in text
