"""Tests for the kernel's timer-callback API: ``call_at`` / ``call_after`` /
``call_periodic`` drained by ``run_until`` / ``run_all``."""

import pytest

from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel


class TestSchedule:
    def test_fires_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.call_at(5.0, lambda: fired.append("b"))
        kernel.call_at(1.0, lambda: fired.append("a"))
        kernel.call_at(9.0, lambda: fired.append("c"))
        kernel.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_schedule_order(self):
        kernel = Kernel()
        fired = []
        for label in "abc":
            kernel.call_at(1.0, lambda label=label: fired.append(label))
        kernel.run_until(1.0)
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        kernel = Kernel()
        seen = []
        kernel.call_at(3.0, lambda: seen.append(kernel.clock.now()))
        kernel.run_until(10.0)
        assert seen == [3.0]
        assert kernel.clock.now() == 10.0

    def test_past_scheduling_rejected(self):
        kernel = Kernel(SimClock(start=5.0))
        with pytest.raises(ValueError):
            kernel.call_at(1.0, lambda: None)

    def test_schedule_after(self):
        kernel = Kernel(SimClock(start=5.0))
        fired = []
        kernel.call_after(2.0, lambda: fired.append(kernel.clock.now()))
        kernel.run_until(10.0)
        assert fired == [7.0]

    def test_events_beyond_deadline_stay_queued(self):
        kernel = Kernel()
        fired = []
        kernel.call_at(5.0, lambda: fired.append(1))
        kernel.run_until(4.0)
        assert fired == []
        kernel.run_until(5.0)
        assert fired == [1]

    def test_cancel(self):
        kernel = Kernel()
        fired = []
        handle = kernel.call_at(5.0, lambda: fired.append(1))
        handle.cancel()
        kernel.run_until(10.0)
        assert fired == []

    def test_len_counts_live_events(self):
        kernel = Kernel()
        h1 = kernel.call_at(1.0, lambda: None)
        kernel.call_at(2.0, lambda: None)
        assert len(kernel) == 2
        h1.cancel()
        assert len(kernel) == 1

    def test_len_cancel_before_pop_is_live_and_idempotent(self):
        # the live counter drops at cancel time, while the cancelled
        # entries still sit in the heap awaiting their (skipped) pop
        kernel = Kernel()
        handles = [kernel.call_at(float(i + 1), lambda: None)
                   for i in range(4)]
        assert len(kernel) == 4
        handles[0].cancel()
        handles[2].cancel()
        assert len(kernel) == 2
        handles[0].cancel()  # double cancel must not double-decrement
        assert len(kernel) == 2
        kernel.run_until(10.0)
        assert len(kernel) == 0

    def test_len_periodic_rearm_keeps_one_live_entry(self):
        kernel = Kernel()
        fired = []
        handle = kernel.call_periodic(
            1.0, lambda: fired.append(kernel.clock.now())
        )
        assert len(kernel) == 1
        for deadline in (1.0, 2.0, 3.0):
            kernel.run_until(deadline)
            assert len(kernel) == 1  # the re-armed entry is live again
        handle.cancel()
        assert len(kernel) == 0
        kernel.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_len_periodic_cancel_in_own_callback(self):
        # at fire time the popped entry is no longer "scheduled", so a
        # cancel from inside the callback must not double-decrement
        kernel = Kernel()
        fired = []

        def cb():
            fired.append(kernel.clock.now())
            handle.cancel()

        handle = kernel.call_periodic(1.0, cb)
        kernel.run_until(5.0)
        assert fired == [1.0]
        assert len(kernel) == 0


class TestPeriodic:
    def test_fires_every_interval(self):
        kernel = Kernel()
        hits = []
        kernel.call_periodic(10.0, lambda: hits.append(kernel.clock.now()))
        kernel.run_until(35.0)
        assert hits == [10.0, 20.0, 30.0]

    def test_explicit_start(self):
        kernel = Kernel()
        hits = []
        kernel.call_periodic(10.0, lambda: hits.append(kernel.clock.now()), start=5.0)
        kernel.run_until(30.0)
        assert hits == [5.0, 15.0, 25.0]

    def test_cancel_stops_future_firings(self):
        kernel = Kernel()
        hits = []
        handle = kernel.call_periodic(10.0, lambda: hits.append(kernel.clock.now()))
        kernel.run_until(25.0)
        handle.cancel()
        kernel.run_until(100.0)
        assert hits == [10.0, 20.0]

    def test_nonpositive_interval_rejected(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            kernel.call_periodic(0.0, lambda: None)

    def test_callback_may_cancel_itself(self):
        kernel = Kernel()
        hits = []
        handle = None

        def fire():
            hits.append(kernel.clock.now())
            if len(hits) == 2:
                handle.cancel()

        handle = kernel.call_periodic(1.0, fire)
        kernel.run_until(10.0)
        assert hits == [1.0, 2.0]


class TestRunAll:
    def test_drains_heap(self):
        kernel = Kernel()
        fired = []
        kernel.call_at(1.0, lambda: fired.append(1))
        kernel.call_at(2.0, lambda: fired.append(2))
        kernel.run_all()
        assert fired == [1, 2]

    def test_runaway_loop_detected(self):
        kernel = Kernel()
        kernel.call_periodic(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            kernel.run_all(max_events=100)
