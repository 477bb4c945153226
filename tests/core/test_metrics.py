"""Tests for the metrics registry and fleet aggregation."""

import pytest

from repro.core.metrics import (
    AggregatedMetrics,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.ports.rng import RngStream


class TestPrimitives:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == 7.0

    def test_histogram_percentiles(self):
        histogram = Histogram()
        for v in range(1, 101):
            histogram.observe(float(v))
        assert histogram.count == 100
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(100) == 100.0
        assert histogram.mean == pytest.approx(50.5)

    def test_histogram_empty(self):
        assert Histogram().percentile(95) == 0.0
        assert Histogram().mean == 0.0

    def test_histogram_rejects_nan(self):
        with pytest.raises(ValueError):
            Histogram().observe(float("nan"))

    def test_histogram_bad_percentile(self):
        histogram = Histogram()
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_histogram_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.total == 4.0


class TestHistogramReservoir:
    def test_exact_below_cap(self):
        histogram = Histogram(reservoir_cap=100)
        for v in range(1, 51):
            histogram.observe(float(v))
        assert not histogram.sampled
        assert histogram.values() == [float(v) for v in range(1, 51)]

    def test_bounded_past_cap(self):
        histogram = Histogram(reservoir_cap=64)
        for v in range(1000):
            histogram.observe(float(v))
        assert len(histogram.values()) == 64
        assert histogram.sampled

    def test_exact_stats_survive_sampling(self):
        histogram = Histogram(reservoir_cap=64)
        n = 1000
        for v in range(n):
            histogram.observe(float(v))
        assert histogram.count == n
        assert histogram.total == pytest.approx(sum(range(n)))
        assert histogram.mean == pytest.approx((n - 1) / 2)

    def test_percentile_tracks_distribution_past_cap(self):
        histogram = Histogram(reservoir_cap=512)
        for v in range(10_000):
            histogram.observe(float(v))
        # a uniform reservoir of a uniform stream: the median estimate
        # stays within a loose band of the true median
        assert 2_500 < histogram.percentile(50) < 7_500

    def test_reservoir_deterministic(self):
        def build():
            histogram = Histogram(
                reservoir_cap=32, rng=RngStream(7, "metrics/test")
            )
            for v in range(500):
                histogram.observe(float(v))
            return histogram.values()

        assert build() == build()

    def test_every_decile_of_the_input_is_kept_equally_often(self):
        """Skip counting must leave the sample uniform: over 200 seeded runs
        of ten times the cap, each tenth of the input supplies a tenth of
        what is retained, within three standard deviations."""
        cap, runs = 100, 200
        kept_per_decile = [0] * 10
        for seed in range(runs):
            histogram = Histogram(reservoir_cap=cap, rng=RngStream(seed, "metrics/uniform"))
            for v in range(10 * cap):
                histogram.observe(float(v))
            assert histogram.count == 10 * cap and len(histogram.values()) == cap
            assert histogram.total == sum(range(10 * cap))
            for v in histogram.values():
                kept_per_decile[int(v) // cap] += 1
        expected = runs * cap / 10
        # each of the runs * cap inputs of a decile is kept with chance 1/10
        sigma = (runs * cap * 0.1 * 0.9) ** 0.5
        for decile, kept in enumerate(kept_per_decile):
            assert abs(kept - expected) < 3 * sigma, (decile, kept_per_decile)

    def test_observing_after_a_merge_stays_uniform(self):
        kept_late = 0
        for seed in range(100):
            merged = Histogram(reservoir_cap=50, rng=RngStream(seed, "metrics/merged"))
            other = Histogram(reservoir_cap=50, rng=RngStream(seed, "metrics/other"))
            for v in range(250):
                merged.observe(float(v))
                other.observe(float(250 + v))
            merged.merge(other)
            for v in range(500, 1000):
                merged.observe(float(v))
            assert merged.count == 1000 and len(merged.values()) == 50
            kept_late += sum(v >= 500 for v in merged.values())
        # half the input came after the merge: half of 100 * 50 kept values
        assert abs(kept_late - 2500) < 3 * (5000 * 0.5 * 0.5) ** 0.5

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            Histogram(reservoir_cap=0)

    def test_merge_exact_within_cap(self):
        a = Histogram(reservoir_cap=100)
        b = Histogram(reservoir_cap=100)
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (3.0, 4.0, 5.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 5
        assert a.total == 15.0
        assert sorted(a.values()) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert not a.sampled

    def test_merge_downsamples_past_cap(self):
        a = Histogram(reservoir_cap=50, rng=RngStream(1, "a"))
        b = Histogram(reservoir_cap=50, rng=RngStream(1, "b"))
        for v in range(40):
            a.observe(float(v))
        for v in range(40, 80):
            b.observe(float(v))
        a.merge(b)
        assert a.count == 80
        assert a.total == pytest.approx(sum(range(80)))
        assert len(a.values()) == 50
        assert a.sampled
        # retained values come from the combined population
        assert set(a.values()) <= {float(v) for v in range(80)}

    def test_merge_deterministic(self):
        def build():
            a = Histogram(reservoir_cap=20, rng=RngStream(3, "merge"))
            b = Histogram(reservoir_cap=20, rng=RngStream(3, "other"))
            for v in range(30):
                a.observe(float(v))
                b.observe(float(v + 100))
            a.merge(b)
            return a.values()

        assert build() == build()

    def test_merge_of_sampled_histograms_keeps_exact_count(self):
        a = Histogram(reservoir_cap=16, rng=RngStream(5, "a"))
        b = Histogram(reservoir_cap=16, rng=RngStream(5, "b"))
        for v in range(200):
            a.observe(float(v))
            b.observe(float(v))
        a.merge(b)
        assert a.count == 400
        assert len(a.values()) == 16

    def test_exemplars_ring(self):
        histogram = Histogram()
        for i in range(20):
            histogram.observe(float(i), exemplar=f"span-{i:02d}")
        exemplars = histogram.exemplars()
        assert len(exemplars) == Histogram.EXEMPLAR_SLOTS
        refs = {ref for _, ref in exemplars}
        # the ring retains the most recent observations
        assert refs == {f"span-{i:02d}" for i in range(12, 20)}

    def test_exemplar_optional(self):
        histogram = Histogram()
        histogram.observe(1.0)
        histogram.observe(2.0, exemplar="s1")
        assert histogram.exemplars() == [(2.0, "s1")]

    def test_registry_histogram_seeded(self):
        registry = MetricsRegistry("node-3")
        histogram = registry.histogram("latency")
        for v in range(100_000):
            histogram.observe(float(v % 97))
        assert histogram.count == 100_000
        assert len(histogram.values()) == Histogram.DEFAULT_RESERVOIR


class TestRegistry:
    def test_well_known_counters_exist(self):
        registry = MetricsRegistry()
        counters = registry.counters()
        assert "get_hits" in counters
        assert "timeout_fallbacks" in counters

    def test_hit_ratio(self):
        registry = MetricsRegistry()
        registry.counter("get_hits").inc(3)
        registry.counter("get_misses").inc(1)
        assert registry.hit_ratio == 0.75

    def test_hit_ratio_empty(self):
        assert MetricsRegistry().hit_ratio == 0.0

    def test_error_breakdown(self):
        """Per-operation, per-error-type counts (the Section 7 lesson)."""
        registry = MetricsRegistry()
        registry.record_error("put", OSError("disk"))
        registry.record_error("put", OSError("disk again"))
        registry.record_error("get", "ChecksumMismatch")
        breakdown = registry.error_breakdown()
        assert breakdown["put"]["OSError"] == 2
        assert breakdown["get"]["ChecksumMismatch"] == 1
        assert registry.total_errors == 3

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("get_hits").inc(2)
        registry.counter("get_misses").inc(2)
        registry.counter("put_rejected_quota").inc()
        snap = registry.snapshot()
        assert snap.hits == 2
        assert snap.hit_ratio == 0.5
        assert snap.put_rejections == 1

    def test_custom_instruments(self):
        registry = MetricsRegistry()
        registry.gauge("bytes_cached").set(100)
        registry.histogram("query_latency").observe(1.5)
        assert registry.gauge("bytes_cached").value == 100
        assert registry.histogram("query_latency").count == 1


class TestAggregation:
    def test_fleet_rollup(self):
        """Thousands of per-node registries roll into one view (Section 7)."""
        nodes = [MetricsRegistry(f"node{i}") for i in range(4)]
        for i, node in enumerate(nodes):
            node.counter("get_hits").inc(i + 1)
            node.counter("get_misses").inc(1)
            node.histogram("latency").observe(float(i))
            node.record_error("get", "TimeoutError")
        fleet = AggregatedMetrics(nodes)
        assert len(fleet) == 4
        assert fleet.counter_total("get_hits") == 10
        assert fleet.hit_ratio == pytest.approx(10 / 14)
        assert fleet.merged_histogram("latency").count == 4
        assert fleet.error_breakdown()["get"]["TimeoutError"] == 4
        assert len(fleet.per_node_hit_ratios()) == 4

    def test_register_after_construction(self):
        fleet = AggregatedMetrics()
        fleet.register(MetricsRegistry())
        assert len(fleet) == 1
        assert fleet.hit_ratio == 0.0
