"""Tests for the node health tracker feeding placement decisions."""

from repro.resilience import BreakerBoard, NodeHealthTracker
from repro.ports.clock import SimClock


def make_tracker(**breaker_kwargs):
    clock = SimClock()
    defaults = dict(min_volume=2, reset_timeout=30.0)
    defaults.update(breaker_kwargs)
    board = BreakerBoard(clock=clock, **defaults)
    return clock, NodeHealthTracker(clock=clock, breakers=board)


class TestAvailability:
    def test_unknown_node_presumed_healthy(self):
        __, tracker = make_tracker()
        assert tracker.is_available("never-seen")

    def test_failures_trip_node_unavailable(self):
        __, tracker = make_tracker()
        tracker.record_failure("cw-0")
        tracker.record_failure("cw-0")
        assert not tracker.is_available("cw-0")
        assert tracker.is_available("cw-1")

    def test_is_available_consumes_no_probe(self):
        clock, tracker = make_tracker()
        tracker.record_failure("cw-0")
        tracker.record_failure("cw-0")
        clock.advance(30.0)  # half-open
        for _ in range(5):
            assert tracker.is_available("cw-0")
        # the probe budget is still intact for the actual caller
        assert tracker.breaker_for("cw-0").allow()

    def test_recovery_restores_availability(self):
        clock, tracker = make_tracker()
        tracker.record_failure("cw-0")
        tracker.record_failure("cw-0")
        clock.advance(30.0)
        assert tracker.breaker_for("cw-0").allow()
        tracker.record_success("cw-0")
        assert tracker.is_available("cw-0")

    def test_filter_available(self):
        __, tracker = make_tracker()
        tracker.record_failure("b")
        tracker.record_failure("b")
        available = [node for node in "abc" if tracker.is_available(node)]
        assert available == ["a", "c"]


class TestSnapshot:
    def test_snapshot_summarizes_per_node(self):
        clock, tracker = make_tracker()
        tracker.record_success("a")
        clock.advance(2.0)
        tracker.record_failure("b")
        tracker.record_failure("b")
        snap = tracker.snapshot()
        assert snap["a"]["successes"] == 1
        assert snap["a"]["state"] == "closed"
        assert snap["b"]["failures"] == 2
        assert snap["b"]["state"] == "open"
        assert snap["b"]["last_failure_at"] == 2.0
