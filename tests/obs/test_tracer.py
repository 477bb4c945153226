"""Tests for SimTracer / NoopTracer and the global tracer slot."""

import pytest

from repro.obs.buffer import SpanBuffer
from repro.obs.span import NOOP_SPAN
from repro.obs.tracer import (
    NOOP_TRACER,
    SimTracer,
    current_tracer,
    installed_tracer,
    reset_tracer,
    set_tracer,
)
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream


def make_tracer(seed=5, **kwargs):
    return SimTracer(
        SimClock(), RngStream(seed, "tracer-tests"), buffer=SpanBuffer(), **kwargs
    )


class TestNoopTracer:
    def test_disabled_surface(self):
        assert not NOOP_TRACER.enabled
        assert NOOP_TRACER.span("anything") is NOOP_SPAN
        assert NOOP_TRACER.current() is NOOP_SPAN
        assert NOOP_TRACER.current_span_id() is None
        assert NOOP_TRACER.open_spans() == []


class TestSimTracer:
    def test_ids_are_deterministic(self):
        def run():
            tracer = make_tracer()
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass
            return [
                (s.trace_id, s.span_id, s.parent_id)
                for s in tracer.buffer.spans()
            ]

        assert run() == run()

    def test_trace_ids_sequence(self):
        tracer = make_tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id == "t000000"
        assert b.trace_id == "t000001"

    def test_span_ids_are_16_hex(self):
        tracer = make_tracer()
        with tracer.span("a") as span:
            pass
        assert len(span.span_id) == 16
        int(span.span_id, 16)

    def test_current_tracks_stack(self):
        tracer = make_tracer()
        assert tracer.current() is NOOP_SPAN
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            assert tracer.current_span_id() == outer.span_id
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current_span_id() is None

    def test_open_spans(self):
        tracer = make_tracer()
        span = tracer.span("leaky")
        assert tracer.open_spans() == [span]
        span.finish()
        assert tracer.open_spans() == []

    def test_timestamps_from_clock(self):
        clock = SimClock()
        tracer = SimTracer(clock, RngStream(5, "t"), buffer=SpanBuffer())
        clock.advance(10.0)
        with tracer.span("a") as span:
            clock.advance(2.5)
        assert span.start == 10.0
        assert span.end == 12.5


class TestSampling:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            make_tracer(sample_rate=1.5)

    def test_zero_rate_records_nothing(self):
        tracer = make_tracer(sample_rate=0.0)
        for _ in range(10):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
        assert len(tracer.buffer) == 0

    def test_children_inherit_sampling(self):
        tracer = make_tracer(sample_rate=0.5)
        for _ in range(50):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        spans = tracer.buffer.spans()
        assert 0 < len(spans) < 100
        # trees are recorded whole or not at all
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        for members in by_trace.values():
            assert len(members) == 2

    def test_ids_identical_across_sample_rates(self):
        """The sampling draw must not perturb the id stream."""

        def ids(rate):
            tracer = make_tracer(sample_rate=rate)
            collected = []
            for _ in range(5):
                with tracer.span("root") as span:
                    collected.append(span.span_id)
            return collected

        assert ids(1.0) == ids(0.5) == ids(0.0)


class TestGlobalSlot:
    def test_default_is_noop(self):
        assert current_tracer() is NOOP_TRACER

    def test_installed_tracer_restores(self):
        tracer = make_tracer()
        with installed_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NOOP_TRACER

    def test_installed_tracer_restores_on_error(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with installed_tracer(tracer):
                raise RuntimeError("boom")
        assert current_tracer() is NOOP_TRACER

    def test_set_and_reset(self):
        tracer = make_tracer()
        set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            reset_tracer()
        assert current_tracer() is NOOP_TRACER
