"""Tests for the metrics exporters."""

import json
import re

from repro.core.metrics import MetricsRegistry
from repro.core.metrics_export import to_json, to_json_dict, to_prometheus_text


def make_registry():
    registry = MetricsRegistry("worker-0")
    registry.counter("get_hits").inc(7)
    registry.counter("get_misses").inc(3)
    registry.gauge("bytes_cached").set(1024)
    for v in (1.0, 2.0, 3.0, 4.0):
        registry.histogram("latency").observe(v)
    registry.record_error("put", OSError("disk full"))
    return registry


class TestJsonExport:
    def test_structure(self):
        doc = to_json_dict(make_registry())
        assert doc["name"] == "worker-0"
        assert doc["counters"]["get_hits"] == 7
        assert doc["gauges"]["bytes_cached"] == 1024
        assert doc["histograms"]["latency"]["count"] == 4
        assert doc["histograms"]["latency"]["p50"] == 2.5
        assert doc["errors"]["put"]["OSError"] == 1
        assert doc["hit_ratio"] == 0.7

    def test_json_roundtrips(self):
        parsed = json.loads(to_json(make_registry(), indent=2))
        assert parsed["counters"]["get_misses"] == 3


class TestPrometheusExport:
    def test_exposition_format(self):
        text = to_prometheus_text(make_registry())
        assert 'cache_get_hits_total{instance="worker-0"} 7' in text
        assert 'cache_bytes_cached{instance="worker-0"} 1024' in text
        assert 'cache_latency_count{instance="worker-0"} 4' in text
        assert 'quantile="0.5"' in text
        assert ('cache_errors_total{instance="worker-0",operation="put",'
                'type="OSError"} 1') in text
        assert 'cache_hit_ratio{instance="worker-0"} 0.7' in text
        assert text.endswith("\n")

    def test_metric_names_sanitized_label_values_not(self):
        registry = MetricsRegistry("node-1.cluster/a")
        registry.counter("weird.name").inc()
        text = to_prometheus_text(registry)
        assert "cache_weird_name_total" in text      # metric name sanitized
        assert 'instance="node-1.cluster/a"' in text  # label value verbatim


def parse_prometheus_text(text):
    """Parse exposition lines back into ``{(name, labels): value}``.

    A deliberately independent re-implementation of the format so the
    round-trip test catches encoder bugs rather than mirroring them.
    """
    line_re = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)\{([^{}]*)\} (\S+)$")
    label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

    def unescape(value):
        return (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )

    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        match = line_re.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        name, label_blob, value = match.groups()
        labels = tuple(
            (k, unescape(v)) for k, v in label_re.findall(label_blob)
        )
        key = (name, labels)
        assert key not in samples, f"duplicate sample: {key}"
        samples[key] = float(value)
    return samples


class TestPrometheusRoundTrip:
    def test_counters_and_gauges_parse_back(self):
        registry = make_registry()
        samples = parse_prometheus_text(to_prometheus_text(registry))
        instance = (("instance", "worker-0"),)
        for name, value in registry.counters().items():
            assert samples[(f"cache_{name}_total", instance)] == value
        assert samples[("cache_bytes_cached", instance)] == 1024.0
        assert samples[("cache_hit_ratio", instance)] == 0.7

    def test_histogram_summary_parses_back(self):
        registry = make_registry()
        samples = parse_prometheus_text(to_prometheus_text(registry))
        instance = (("instance", "worker-0"),)
        histogram = registry.histogram("latency")
        assert samples[("cache_latency_count", instance)] == histogram.count
        assert samples[("cache_latency_sum", instance)] == histogram.total
        quantile_key = (
            "cache_latency",
            (("instance", "worker-0"), ("quantile", "0.5")),
        )
        assert samples[quantile_key] == histogram.percentile(50)

    def test_error_breakdown_parses_back(self):
        registry = make_registry()
        samples = parse_prometheus_text(to_prometheus_text(registry))
        key = (
            "cache_errors_total",
            (
                ("instance", "worker-0"),
                ("operation", "put"),
                ("type", "OSError"),
            ),
        )
        assert samples[key] == 1.0

    def test_escaped_labels_round_trip(self):
        raw_name = 'node"1\\odd\nname'
        registry = MetricsRegistry(raw_name)
        registry.counter("get_hits").inc(5)
        samples = parse_prometheus_text(to_prometheus_text(registry))
        # the parser's unescape must recover the original instance name
        key = ("cache_get_hits_total", (("instance", raw_name),))
        assert samples[key] == 5.0


class TestJsonRoundTrip:
    def test_matches_registry_snapshot(self):
        registry = make_registry()
        doc = json.loads(to_json(registry))
        assert doc["name"] == registry.name
        assert doc["counters"] == registry.counters()
        assert doc["gauges"] == {
            name: g.value for name, g in registry._gauges.items()
        }
        assert doc["errors"] == registry.error_breakdown()
        assert doc["hit_ratio"] == registry.hit_ratio
        latency = registry.histogram("latency")
        assert doc["histograms"]["latency"]["count"] == latency.count
        assert doc["histograms"]["latency"]["total"] == latency.total
        assert doc["histograms"]["latency"]["mean"] == latency.mean
        assert doc["histograms"]["latency"]["sampled"] is False

    def test_exemplars_exported(self):
        registry = MetricsRegistry("worker-0")
        registry.histogram("latency").observe(0.25, exemplar="00c0ffee")
        doc = to_json_dict(registry)
        assert doc["histograms"]["latency"]["exemplars"] == [
            {"value": 0.25, "span_id": "00c0ffee"}
        ]

    def test_escaped_label_names_survive_json(self):
        raw_name = 'node"1\\odd\nname'
        registry = MetricsRegistry(raw_name)
        doc = json.loads(to_json(registry))
        assert doc["name"] == raw_name


class TestLabelEscaping:
    def test_special_characters_escaped(self):
        registry = MetricsRegistry('node"1\\odd\nname')
        registry.counter("get_hits").inc()
        text = to_prometheus_text(registry)
        assert 'instance="node\\"1\\\\odd\\nname"' in text
        # no raw newline may survive inside a label value: every exposition
        # line must be a complete sample ending in a value
        for line in text.splitlines():
            assert line.endswith(("}", "0", "1")) or line.split()[-1]
            assert "\n" not in line
        assert 'node"1' not in text  # the raw, unescaped value is gone

    def test_plain_names_unchanged(self):
        registry = MetricsRegistry("worker-0")
        registry.counter("get_hits").inc()
        assert 'instance="worker-0"' in to_prometheus_text(registry)
