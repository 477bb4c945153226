"""Tests for sliding-window circuit breakers and the breaker board."""

import pytest

from repro.resilience import BreakerBoard, BreakerState, CircuitBreaker
from repro.ports.clock import SimClock


def make_breaker(clock=None, **kwargs):
    clock = clock if clock is not None else SimClock()
    defaults = dict(window_seconds=60.0, failure_threshold=0.5, min_volume=4,
                    reset_timeout=30.0)
    defaults.update(kwargs)
    return clock, CircuitBreaker("node-a", clock=clock, **defaults)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        __, breaker = make_breaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_trips_at_threshold_with_min_volume(self):
        __, breaker = make_breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # below min_volume
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_successes_keep_ratio_below_threshold(self):
        __, breaker = make_breaker()
        for _ in range(6):
            breaker.record_success()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # 4/10 < 0.5

    def test_open_rejects_calls(self):
        __, breaker = make_breaker(min_volume=1, failure_threshold=1.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.metrics.counter("breaker_rejections").value == 1

    def test_half_open_after_reset_timeout(self):
        clock, breaker = make_breaker(min_volume=1, reset_timeout=30.0)
        breaker.record_failure()
        clock.advance(29.9)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.1)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_probe_success_closes(self):
        clock, breaker = make_breaker(min_volume=1, reset_timeout=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock, breaker = make_breaker(min_volume=1, reset_timeout=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2

    def test_half_open_bounds_probes(self):
        clock, breaker = make_breaker(min_volume=1, reset_timeout=1.0,
                                      half_open_probes=2)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget spent

    def test_available_is_non_consuming(self):
        clock, breaker = make_breaker(min_volume=1, reset_timeout=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.available
        assert breaker.available  # still true: no probe consumed
        assert breaker.allow()
        assert not breaker.available  # the single probe is now spent

    def test_window_prunes_old_failures(self):
        clock, breaker = make_breaker(window_seconds=10.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(20.0)
        breaker.record_failure()  # old failures aged out: volume is 1
        assert breaker.state is BreakerState.CLOSED
        breaker._prune(clock.now())
        assert [ok for __, ok in breaker._events] == [False]

    def test_trip_counts_metric(self):
        __, breaker = make_breaker(min_volume=1)
        breaker.record_failure()
        assert breaker.metrics.counter("breaker_trips").value == 1


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_seconds": 0.0},
            {"failure_threshold": 0.0},
            {"failure_threshold": 1.5},
            {"min_volume": 0},
            {"reset_timeout": -1.0},
            {"half_open_probes": 0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


class TestBreakerBoard:
    def test_per_target_breakers_share_events(self):
        clock = SimClock()
        board = BreakerBoard(clock=clock, min_volume=1)
        board.for_target("a").record_failure()
        clock.advance(5.0)
        board.for_target("b").record_failure()
        assert board.states() == {"a": "open", "b": "open"}
        assert board.total_trips() == 2
        assert board.events == [(0.0, "a", "trip"), (5.0, "b", "trip")]

    def test_contains_only_created_targets(self):
        board = BreakerBoard()
        assert "x" not in board
        board.for_target("x")
        assert "x" in board
        assert len(board) == 1

    def test_same_seedless_config_reused(self):
        board = BreakerBoard(min_volume=2)
        assert board.for_target("n") is board.for_target("n")
        assert board.for_target("n").min_volume == 2
