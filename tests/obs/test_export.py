"""Tests for the JSONL and Chrome trace_event exporters."""

import json

import pytest

from repro.obs.buffer import SpanBuffer
from repro.obs.export import (
    chrome_trace_json,
    jsonl_to_dicts,
    spans_to_jsonl,
    to_chrome_trace,
    tree_signature,
)
from repro.obs.tracer import SimTracer
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream


def make_tracer(seed=17):
    return SimTracer(
        SimClock(), RngStream(seed, "export-tests"), buffer=SpanBuffer()
    )


def sample_spans(seed=17):
    tracer = make_tracer(seed)
    with tracer.span("query", actor="coordinator", query_id="q1") as root:
        root.charge("compute", 0.2)
        with tracer.span("read", actor="worker-0") as read:
            read.charge("remote", 1.0)
            read.event("retry", attempt=1)
        root.annotate("latency", 1.2)
    with tracer.span("other", actor="worker-1") as other:
        other.charge("cache_ssd", 0.1)
    return tracer.buffer.spans()


class TestJsonl:
    def test_round_trip(self):
        spans = sample_spans()
        docs = jsonl_to_dicts(spans_to_jsonl(spans))
        assert len(docs) == len(spans)
        by_id = {d["span_id"]: d for d in docs}
        for span in spans:
            doc = by_id[span.span_id]
            assert doc == span.to_dict()

    def test_deterministic_text(self):
        assert spans_to_jsonl(sample_spans()) == spans_to_jsonl(sample_spans())

    def test_empty(self):
        assert spans_to_jsonl([]) == ""
        assert jsonl_to_dicts("") == []


class TestTreeSignature:
    def test_same_scenario_same_signature(self):
        assert tree_signature(sample_spans()) == tree_signature(sample_spans())

    def test_different_scenario_differs(self):
        assert tree_signature(sample_spans(seed=17)) != tree_signature(
            sample_spans(seed=18)
        )


class TestChromeTrace:
    def test_schema_every_event_complete(self):
        doc = to_chrome_trace(sample_spans())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in {"X", "M"}
            assert "ts" in event
            assert "pid" in event
            assert "tid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0.0

    def test_pid_per_trace_tid_per_actor(self):
        doc = to_chrome_trace(sample_spans())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pids = {e["args"]["trace_id"]: e["pid"] for e in xs}
        assert pids == {"t000000": 1, "t000001": 2}
        tids = {e["name"]: e["tid"] for e in xs}
        assert len(set(tids.values())) == 3  # coordinator, worker-0, worker-1

    def test_layout_widths_reflect_charges(self):
        doc = to_chrome_trace(sample_spans())
        xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        # the query span must at least span its own + child charges (1.2s)
        assert xs["query"]["dur"] >= 1.2 * 1_000_000 - 1
        # the child sits inside the parent, after the parent's self-charges
        assert xs["read"]["ts"] >= xs["query"]["ts"]

    def test_args_carry_span_payload(self):
        doc = to_chrome_trace(sample_spans())
        xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        read = xs["read"]
        assert read["args"]["charges"] == {"remote": 1.0}
        assert read["args"]["events"] == ["retry"]
        query = xs["query"]
        assert "query_id" in query["args"]["attrs"]

    def test_metadata_names(self):
        doc = to_chrome_trace(sample_spans())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        for event in meta:
            assert event["ts"] == 0

    def test_json_text_loads(self):
        parsed = json.loads(chrome_trace_json(sample_spans(), indent=2))
        assert "traceEvents" in parsed
        assert parsed["displayTimeUnit"] == "ms"

    def test_empty(self):
        assert to_chrome_trace([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }


class TestBuffer:
    def test_capacity_drops_new(self):
        buffer = SpanBuffer(capacity=2)
        spans = sample_spans()
        for span in spans:
            buffer.record(span)
        assert len(buffer) == 2
        assert buffer.dropped == len(spans) - 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpanBuffer(capacity=0)

    def test_traces_and_roots(self):
        buffer = SpanBuffer()
        spans = sample_spans()
        for span in spans:
            buffer.record(span)
        traces = buffer.traces()
        assert set(traces) == {"t000000", "t000001"}
        assert len(buffer.roots()) == 2
        assert buffer.trace("t000001")[0].name == "other"
        buffer.clear()
        assert len(buffer) == 0
