"""Tests for Span/NoopSpan lifecycle, charges, and serialisation."""

import pytest

from repro.obs.buffer import SpanBuffer
from repro.obs.span import ATTRIBUTION_BUCKETS, NOOP_SPAN, iter_children
from repro.obs.tracer import SimTracer
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream


@pytest.fixture
def tracer():
    return SimTracer(SimClock(), RngStream(3, "span-tests"), buffer=SpanBuffer())


class TestSpanLifecycle:
    def test_context_manager_closes(self, tracer):
        with tracer.span("read") as span:
            assert span.open
        assert not span.open
        assert tracer.buffer.spans() == [span]

    def test_finish_idempotent(self, tracer):
        span = tracer.span("read")
        try:
            pass
        finally:
            span.finish()
        span.finish()
        assert len(tracer.buffer) == 1

    def test_end_span_alias(self, tracer):
        span = tracer.span("read")
        try:
            pass
        finally:
            span.end_span()
        assert not span.open

    def test_exception_annotates_error(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("read") as span:
                raise RuntimeError("boom")
        assert span.attrs["error"] == "RuntimeError"
        assert not span.open

    def test_parent_child_links(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None


class TestCharges:
    def test_charges_accumulate(self, tracer):
        with tracer.span("read") as span:
            span.charge("remote", 0.25)
            span.charge("remote", 0.25)
            span.charge("queueing", 0.1)
        assert span.charges == {"remote": 0.5, "queueing": 0.1}
        assert span.charged_total == pytest.approx(0.6)

    def test_nonpositive_charges_dropped(self, tracer):
        with tracer.span("read") as span:
            span.charge("remote", 0.0)
            span.charge("remote", -1e-18)  # fp residue from decomposition
        assert span.charges == {}

    def test_canonical_buckets_are_stable(self):
        assert ATTRIBUTION_BUCKETS == (
            "cache_mem",
            "cache_ssd",
            "remote",
            "queueing",
            "retry_backoff",
            "network",
            "compute",
        )


class TestEventsAndAttrs:
    def test_events_record_in_order(self, tracer):
        with tracer.span("read") as span:
            span.event("retry", attempt=1)
            span.event("hedge", won=True)
        assert [e["name"] for e in span.events] == ["retry", "hedge"]
        assert span.events[0]["attempt"] == 1

    def test_annotate(self, tracer):
        with tracer.span("read", file_id="f1") as span:
            span.annotate("latency", 0.5)
        assert span.attrs == {"file_id": "f1", "latency": 0.5}

    def test_to_dict_is_json_safe(self, tracer):
        with tracer.span("read", file_id="f1") as span:
            span.charge("remote", 0.5)
            span.event("retry")
        doc = span.to_dict()
        assert doc["name"] == "read"
        assert doc["attrs"] == {"file_id": "f1"}
        assert doc["charges"] == {"remote": 0.5}
        assert doc["events"] == [{"name": "retry"}]
        assert doc["parent_id"] is None


class TestNoopSpan:
    def test_all_operations_are_noops(self):
        with NOOP_SPAN as span:
            span.charge("remote", 1.0)
            span.annotate("latency", 1.0)
            span.event("retry")
            span.finish()
        assert span.charges == {}
        assert span.attrs == {}
        assert span.events == []
        assert span.span_id == ""
        assert span.to_dict() == {}

    def test_noop_span_is_shared(self):
        assert NOOP_SPAN is NOOP_SPAN.__enter__()


class TestIterChildren:
    def test_deterministic_order(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        index = {}
        for span in tracer.buffer.spans():
            index.setdefault(span.parent_id, []).append(span)
        names = [c.name for c in iter_children(root, index)]
        assert names == ["a", "b"]
