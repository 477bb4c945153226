"""Tests for the kernel's timer-callback API: ``call_at`` / ``call_after``
drained by ``run_until`` / ``run_all``."""

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
        handles = []

        def fire():
            fired.append(kernel.clock.now())
            handles.append(kernel.call_after(1.0, fire))

        handles.append(kernel.call_after(1.0, fire))
        assert len(kernel) == 1
        for deadline in (1.0, 2.0, 3.0):
            kernel.run_until(deadline)
            assert len(kernel) == 1  # the re-armed entry is live again
        handles[-1].cancel()
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

        handle = kernel.call_after(1.0, cb)
        kernel.run_until(5.0)
        assert fired == [1.0]
        assert len(kernel) == 0


def rearm_every(kernel: Kernel, interval: float) -> None:
    """A timer that re-arms itself forever: a runaway loop."""

    def fire() -> None:
        kernel.call_after(interval, fire)

    kernel.call_after(interval, fire)


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
        rearm_every(kernel, 1.0)
        with pytest.raises(RuntimeError):
            kernel.run_all(max_events=100)
