"""Tests for per-trace latency attribution and aggregation."""

import pytest

from repro.obs.attribution import (
    TraceAttribution,
    aggregate,
    attribute_buffer,
    attribute_trace,
    format_attribution,
    is_off_path,
)
from repro.obs.buffer import SpanBuffer
from repro.obs.tracer import SimTracer
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream


def make_tracer():
    return SimTracer(
        SimClock(), RngStream(9, "attribution-tests"), buffer=SpanBuffer()
    )


class TestAttributeTrace:
    def test_buckets_sum_over_tree(self):
        tracer = make_tracer()
        with tracer.span("query") as root:
            root.charge("compute", 0.2)
            with tracer.span("read") as read:
                read.charge("remote", 1.0)
                read.charge("queueing", 0.3)
            root.annotate("latency", 1.5)
        report = attribute_trace(tracer.buffer.spans())
        assert report.wall == 1.5
        assert report.buckets == {
            "compute": 0.2,
            "remote": 1.0,
            "queueing": 0.3,
        }
        assert report.charged_total == pytest.approx(1.5)
        assert report.within(0.01)
        assert report.span_count == 2

    def test_wall_defaults_to_charges(self):
        tracer = make_tracer()
        with tracer.span("read") as span:
            span.charge("remote", 0.7)
        report = attribute_trace(tracer.buffer.spans())
        assert report.wall == pytest.approx(0.7)
        assert report.unattributed == pytest.approx(0.0)

    def test_off_path_subtree_excluded(self):
        tracer = make_tracer()
        with tracer.span("read") as root:
            with tracer.span("hedge_attempt", hedge_attempt=True) as hedge:
                hedge.charge("remote", 5.0)
                with tracer.span("nested") as nested:
                    nested.charge("remote", 5.0)
            root.charge("remote", 1.0)
            root.annotate("latency", 1.0)
        report = attribute_trace(tracer.buffer.spans())
        assert report.buckets == {"remote": 1.0}
        assert report.span_count == 1

    def test_off_path_attr(self):
        tracer = make_tracer()
        with tracer.span("cache_load", off_path=True) as load:
            load.charge("remote", 2.0)
        with tracer.span("plain") as plain:
            pass
        assert is_off_path(load)
        assert not is_off_path(plain)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            attribute_trace([])

    def test_multiple_roots_rejected(self):
        tracer = make_tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        with pytest.raises(ValueError):
            attribute_trace(tracer.buffer.spans())


class TestWithin:
    def test_zero_wall(self):
        report = TraceAttribution(trace_id="t0", root_name="r", wall=0.0)
        assert report.within()
        report.buckets["remote"] = 0.5
        assert not report.within()

    def test_relative_tolerance(self):
        report = TraceAttribution(
            trace_id="t0", root_name="r", wall=100.0,
            buckets={"remote": 99.5},
        )
        assert report.within(0.01)
        assert not report.within(0.001)


class TestBufferAttribution:
    def test_attributes_every_complete_trace(self):
        tracer = make_tracer()
        for i in range(3):
            with tracer.span("read") as span:
                span.charge("remote", float(i + 1))
        reports = attribute_buffer(tracer.buffer)
        assert [r.trace_id for r in reports] == ["t000000", "t000001", "t000002"]
        assert [r.wall for r in reports] == [1.0, 2.0, 3.0]

    def test_partial_traces_skipped(self):
        tracer = make_tracer()
        with tracer.span("read") as root:
            with tracer.span("child"):
                pass
        spans = tracer.buffer.spans()
        buffer = SpanBuffer()
        for span in spans:
            if span.parent_id is not None:  # drop the root: partial trace
                buffer.record(span)
        assert attribute_buffer(buffer) == []

    def test_aggregate(self):
        reports = [
            TraceAttribution("t0", "r", 1.0, {"remote": 1.0}),
            TraceAttribution("t1", "r", 2.0, {"remote": 1.5, "compute": 0.5}),
        ]
        assert aggregate(reports) == {"remote": 2.5, "compute": 0.5}


class TestFormatting:
    def test_format_attribution(self):
        reports = [
            TraceAttribution("t0", "query", 1.0, {"remote": 0.6, "compute": 0.4}),
        ]
        text = format_attribution(reports, top=1)
        assert "traces=1" in text
        assert "remote" in text
        assert "slowest 1 trace(s):" in text
        assert "t0" in text

    def test_format_empty(self):
        text = format_attribution([])
        assert "traces=0" in text
