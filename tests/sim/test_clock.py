"""Tests for virtual clocks."""

import pytest

from repro.ports.clock import Clock, SimClock, WallClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(start=100.0).now() == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(5.0) == 5.0
        assert clock.now() == 5.0

    def test_advance_zero_is_noop(self):
        clock = SimClock(start=3.0)
        clock.advance(0.0)
        assert clock.now() == 3.0

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now() == 10.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(start=10.0)
        clock.advance_to(5.0)
        assert clock.now() == 10.0

    def test_advance_to_never_moves_backwards(self):
        """Monotonicity under arbitrary advance_to interleavings: the
        event loop calls advance_to with heap-ordered but occasionally
        equal/past timestamps, and `now` must be non-decreasing through
        all of them."""
        clock = SimClock()
        observed = []
        for target in (5.0, 3.0, 5.0, 7.5, 7.5, 0.0, 20.0):
            clock.advance_to(target)
            observed.append(clock.now())
        assert observed == [5.0, 5.0, 5.0, 7.5, 7.5, 7.5, 20.0]
        assert observed == sorted(observed)

    def test_advance_to_current_instant_is_noop(self):
        clock = SimClock(start=4.0)
        assert clock.advance_to(4.0) == 4.0
        assert clock.now() == 4.0

    def test_advance_to_returns_new_now(self):
        clock = SimClock()
        assert clock.advance_to(2.5) == 2.5
        assert clock.advance_to(1.0) == 2.5  # past target: returns now

    def test_mixed_advance_and_advance_to_stay_monotonic(self):
        clock = SimClock()
        clock.advance(2.0)
        clock.advance_to(1.5)       # behind: no-op
        assert clock.now() == 2.0
        clock.advance(0.0)          # zero step: allowed
        clock.advance_to(2.0)       # equal: no-op
        with pytest.raises(ValueError):
            clock.advance(-1e-9)    # even epsilon backwards is an error
        assert clock.now() == 2.0

    def test_satisfies_protocol(self):
        assert isinstance(SimClock(), Clock)
        assert isinstance(WallClock(), Clock)

    def test_repr(self):
        assert "SimClock" in repr(SimClock())


class TestWallClock:
    def test_monotonic(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a
