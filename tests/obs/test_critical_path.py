"""Tests for critical-path extraction."""

import pytest

from repro.obs.buffer import SpanBuffer
from repro.obs.critical_path import critical_path, format_critical_path
from repro.obs.tracer import SimTracer
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream


def make_tracer():
    return SimTracer(
        SimClock(), RngStream(13, "critical-path-tests"), buffer=SpanBuffer()
    )


class TestCriticalPath:
    def test_follows_heaviest_child(self):
        tracer = make_tracer()
        with tracer.span("query") as root:
            root.charge("compute", 0.1)
            with tracer.span("light") as light:
                light.charge("remote", 0.2)
            with tracer.span("heavy") as heavy:
                heavy.charge("queueing", 0.1)
                with tracer.span("leaf") as leaf:
                    leaf.charge("remote", 3.0)
        steps = critical_path(tracer.buffer.spans())
        assert [s.name for s in steps] == ["query", "heavy", "leaf"]
        assert steps[0].subtree_seconds == pytest.approx(3.4)
        assert steps[-1].dominant_bucket == "remote"
        assert steps[-1].self_seconds == pytest.approx(3.0)

    def test_off_path_subtrees_ignored(self):
        tracer = make_tracer()
        with tracer.span("read"):
            with tracer.span("hedge_attempt", hedge_attempt=True) as hedge:
                hedge.charge("remote", 100.0)
            with tracer.span("serve") as serve:
                serve.charge("cache_ssd", 0.5)
        steps = critical_path(tracer.buffer.spans())
        assert [s.name for s in steps] == ["read", "serve"]

    def test_empty_inputs(self):
        assert critical_path([]) == []

    def test_dominant_bucket_of_unchanged_span(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                inner.charge("remote", 1.0)
        steps = critical_path(tracer.buffer.spans())
        assert steps[0].dominant_bucket == "-"
        assert steps[1].dominant_bucket == "remote"

    def test_deterministic_tie_break(self):
        def run():
            tracer = make_tracer()
            with tracer.span("root"):
                with tracer.span("a") as a:
                    a.charge("remote", 1.0)
                with tracer.span("b") as b:
                    b.charge("remote", 1.0)
            return [s.name for s in critical_path(tracer.buffer.spans())]

        first, second = run(), run()
        assert first == second
        assert len(first) == 2


class TestFormatting:
    def test_format(self):
        tracer = make_tracer()
        with tracer.span("query", actor="coordinator") as root:
            root.charge("compute", 1.0)
        text = format_critical_path(critical_path(tracer.buffer.spans()))
        assert "query" in text
        assert "@coordinator" in text
        assert "[compute]" in text

    def test_format_empty(self):
        assert format_critical_path([]) == "(empty trace)"
