"""Tests for the process-based discrete-event kernel.

Covers the determinism invariants the kernel guarantees (same-timestamp
FIFO via ``(time, seq)`` heap ordering), cancellation semantics
(cancel-while-queued withdraws the FIFO claim; the hedge loser's partial
transfer is accounted), and a double-run of a kernel-mode chaos soak
through :class:`~repro.sim.sanitizer.DeterminismHarness`.
"""

import pytest

from repro.errors import RemoteReadError
from repro.obs.attribution import attribute_trace
from repro.obs.profiler import KernelProfiler
from repro.obs.tracer import SimTracer, installed_tracer
from repro.resilience.hedge import HedgePolicy
from repro.resilience.policy import RetryPolicy
from repro.resilience.source import ResilientDataSource
from repro.ports.clock import SimClock
from repro.sim.kernel import (
    Cancelled,
    Kernel,
    KernelError,
    Timeout,
    all_of,
    any_of,
    collecting_io,
    defer_io,
    io_collection_active,
    replay_plan,
)
from repro.ports.rng import RngStream
from repro.sim.sanitizer import DeterminismHarness
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.object_store import ObjectStore, ObjectStoreProfile
from repro.storage.remote import ObjectStoreDataSource
from tests.sim.replayed import device_read, source_read


def make_kernel():
    clock = SimClock()
    return Kernel(clock), clock


class TestSameTimestampFifo:
    def test_processes_spawned_together_run_in_spawn_order(self):
        kernel, _ = make_kernel()
        order = []

        def proc(tag):
            order.append(tag)
            yield Timeout(0.0)
            order.append(tag + "-after")

        for tag in ("a", "b", "c"):
            kernel.spawn(proc(tag))
        kernel.run()
        assert order == ["a", "b", "c", "a-after", "b-after", "c-after"]

    def test_resource_grants_fifo_at_identical_timestamps(self):
        kernel, _ = make_kernel()
        resource = kernel.resource(1)
        grants = []

        def claimant(tag):
            request = resource.request()
            yield request
            grants.append(tag)
            yield Timeout(1.0)
            resource.release(request)

        for tag in range(5):
            kernel.spawn(claimant(tag))
        kernel.run()
        assert grants == [0, 1, 2, 3, 4]

    def test_timers_at_same_instant_fire_in_schedule_order(self):
        kernel, _ = make_kernel()
        fired = []
        for tag in range(4):
            kernel.call_at(5.0, lambda tag=tag: fired.append(tag))
        kernel.run()
        assert fired == [0, 1, 2, 3]


class TestCancellation:
    def test_cancel_while_queued_withdraws_the_claim(self):
        kernel, _ = make_kernel()
        resource = kernel.resource(1)
        served = []
        cleanup_ran = []

        def holder():
            request = resource.request()
            yield request
            yield Timeout(10.0)
            resource.release(request)

        def queued():
            request = resource.request()
            try:
                yield request
                served.append("queued")
                resource.release(request)
            except Cancelled:
                cleanup_ran.append(True)
                raise

        def third():
            request = resource.request()
            yield request
            served.append("third")
            resource.release(request)

        kernel.spawn(holder())
        victim = kernel.spawn(queued())
        kernel.spawn(third())
        kernel.run_until(1.0)
        assert resource.waiting == 2
        victim.cancel("test")
        assert victim.cancelled
        # the victim's slot claim is withdrawn: the third process is next
        assert resource.waiting == 1
        kernel.run()
        assert served == ["third"]
        assert cleanup_ran == [True]

    def test_cancelled_before_start_never_runs(self):
        kernel, _ = make_kernel()
        ran = []

        def proc():
            ran.append(True)
            yield Timeout(1.0)

        victim = kernel.spawn(proc())
        victim.cancel()
        kernel.run()
        assert ran == []
        assert victim.cancelled

    def test_self_cancel_is_an_error(self):
        kernel, _ = make_kernel()
        holder = {}

        def proc():
            yield Timeout(0.0)
            holder["proc"].cancel()

        holder["proc"] = kernel.spawn(proc())
        with pytest.raises(KernelError):
            kernel.run()

    def test_cancel_mid_transfer_accounts_wasted_bytes(self):
        """The hedge-loser contract at device level: cancelling a process
        inside a transfer releases the channel and counts moved bytes."""
        kernel, clock = make_kernel()
        device = StorageDevice(
            DeviceProfile(name="d", read_bandwidth=1e6, write_bandwidth=1e6,
                          seek_latency=0.0, channels=1),
            clock,
        ).attach_kernel(kernel)

        def reader():
            yield from device_read(device, 1_000_000)  # 1.0s of service

        victim = kernel.spawn(reader())
        kernel.run_until(0.25)
        victim.cancel("mid-flight")
        assert victim.cancelled
        assert victim.wasted_bytes == pytest.approx(250_000, rel=0.01)
        assert device.stats.cancelled_requests == 1
        assert device.stats.cancelled_bytes == victim.wasted_bytes
        # the channel is free again: a new read proceeds unqueued
        latencies = []

        def second():
            latencies.append((yield from device_read(device, 1000)))

        kernel.spawn(second())
        kernel.run()
        assert latencies[0] == pytest.approx(0.001)


class TestHedgeLoserCancellation:
    def _build(self, seed=7):
        clock = SimClock()
        kernel = Kernel(clock)
        store = ObjectStore(ObjectStoreProfile(), clock)
        store.put_object("f", bytes(4 * 1024 * 1024))
        store.attach_kernel(kernel)
        hedge = HedgePolicy(min_observations=5)
        source = ResilientDataSource(
            ObjectStoreDataSource(store),
            policy=RetryPolicy(max_attempts=3),
            hedge=hedge,
            rng=RngStream(seed, "test/hedge"),
        )
        return kernel, clock, source, hedge

    def test_loser_cancelled_mid_flight_wasted_bytes_counted(self):
        kernel, _, source, hedge = self._build()
        # arm the hedge with observations far below the actual transfer
        # time, so the backup always launches
        for _ in range(6):
            hedge.observe(0.001)
        results = []

        def reader():
            result = yield from source_read(source, "f", 0, 4 * 1024 * 1024)
            results.append(result)

        kernel.spawn(reader())
        kernel.run()
        assert len(results) == 1
        assert len(results[0].data) == 4 * 1024 * 1024
        assert hedge.hedged_requests == 1
        # identical primary/backup service: the earlier-started primary
        # wins and the mid-flight backup is the cancelled loser
        assert hedge.hedge_wins == 0
        assert hedge.wasted_bytes > 0
        assert hedge.metrics.counter("hedge_wasted_bytes").value == hedge.wasted_bytes

    def test_unarmed_hedge_runs_primary_alone(self):
        kernel, _, source, hedge = self._build()
        results = []

        def reader():
            results.append((yield from source_read(source, "f", 0, 1024)))

        kernel.spawn(reader())
        kernel.run()
        assert hedge.hedged_requests == 0
        assert hedge.wasted_bytes == 0
        assert len(hedge._history) == 1


class TestLenLiveCounter:
    """``len(kernel)`` is an O(1) live-entry counter over both lanes --
    cancelled-but-unpopped entries are excluded the moment they cancel."""

    def test_blocked_process_holds_no_lane_entry(self):
        kernel, __ = make_kernel()
        ev = kernel.event("go")
        ran = []

        def waiter():
            yield ev
            ran.append(1)

        kernel.spawn(waiter())
        assert len(kernel) == 1  # the spawn start entry
        kernel.run_until(0.0)    # started; now registered on the event
        assert len(kernel) == 0
        ev.trigger()
        assert len(kernel) == 1  # ready-lane resume queued
        kernel.run_all()
        assert len(kernel) == 0
        assert ran == [1]

    def test_cancel_before_pop_excludes_ready_entry(self):
        kernel, __ = make_kernel()
        ev = kernel.event("go")
        ran = []

        def waiter():
            yield ev
            ran.append(1)

        process = kernel.spawn(waiter())
        kernel.run_until(0.0)
        ev.trigger()
        assert len(kernel) == 1
        process.cancel()         # stale ready entry stays queued...
        assert len(kernel) == 0  # ...but the live count drops now
        fired_before = kernel.events_fired
        kernel.run_all()         # the stale pop must not count as an event
        assert kernel.events_fired == fired_before
        assert ran == [] and process.cancelled

    def test_cancel_unstarted_process_decrements(self):
        kernel, __ = make_kernel()

        def body():
            yield Timeout(1.0)

        process = kernel.spawn(body())
        assert len(kernel) == 1
        process.cancel()
        assert len(kernel) == 0
        assert kernel.processes_cancelled == 1
        kernel.run_all()
        assert kernel.events_fired == 0

    @pytest.mark.parametrize("drain", ["run_all", "run_until", "profiled"])
    def test_entry_whose_process_raises_is_consumed(self, drain):
        """A joinless process that raises propagates out of the drain loop
        (fail fast); the entry that resumed it was consumed all the same,
        so neither the live count nor the event count may keep it."""
        kernel, clock = make_kernel()
        if drain == "profiled":
            kernel.attach_profiler(KernelProfiler(clock))

        def boom():
            yield Timeout(1.0)
            raise RuntimeError("boom")

        def sleeper():
            yield Timeout(5.0)

        kernel.spawn(boom())
        kernel.spawn(sleeper())
        with pytest.raises(RuntimeError):
            if drain == "run_until":
                kernel.run_until(10.0)
            else:
                kernel.run_all()
        # fired: both starts and boom's wake-up; live: sleeper's wake-up
        assert kernel.events_fired == 3
        assert len(kernel) == 1
        kernel.run_all()
        assert len(kernel) == 0
        assert kernel.processes_completed == kernel.processes_spawned == 2

    def test_event_budget_still_raises(self):
        kernel, __ = make_kernel()

        def fire():
            kernel.call_after(1.0, fire)

        kernel.call_after(1.0, fire)
        with pytest.raises(KernelError):
            kernel.run_all(max_events=100)
        assert kernel.events_fired == 100
        assert len(kernel) == 1


class TestDeferredIo:
    def test_collection_is_scoped(self):
        assert not io_collection_active()
        plan = []
        with collecting_io(plan):
            assert io_collection_active()
            defer_io(lambda: 0.0)
        assert not io_collection_active()
        assert len(plan) == 1

    def test_replay_charges_measured_time(self):
        kernel, clock = make_kernel()
        plan = []

        def op():
            yield Timeout(2.5)
            return 2.5

        with collecting_io(plan):
            defer_io(op)
        elapsed = []

        def proc():
            elapsed.append((yield from replay_plan(plan)))

        kernel.spawn(proc())
        kernel.run()
        assert elapsed[0] == pytest.approx(2.5)
        assert clock.now() == pytest.approx(2.5)


class TestCombinators:
    def test_any_of_returns_first_and_losers_keep_running(self):
        kernel, clock = make_kernel()
        finished = []

        def sleeper(delay, tag):
            yield Timeout(delay)
            finished.append(tag)
            return tag

        def racer():
            fast = kernel.spawn(sleeper(1.0, "fast"))
            slow = kernel.spawn(sleeper(5.0, "slow"))
            winner = yield any_of(fast, slow)
            finished.append(f"winner:{winner.value}")

        kernel.spawn(racer())
        kernel.run()
        # the loser was not cancelled implicitly; it ran to completion
        assert finished == ["fast", "winner:fast", "slow"]
        assert clock.now() == pytest.approx(5.0)

    def test_all_of_waits_for_every_member(self):
        kernel, clock = make_kernel()

        def sleeper(delay):
            yield Timeout(delay)

        def joiner():
            yield all_of(
                kernel.spawn(sleeper(1.0)),
                kernel.spawn(sleeper(3.0)),
                kernel.spawn(sleeper(2.0)),
            )

        proc = kernel.spawn(joiner())
        kernel.run()
        assert proc.done
        assert clock.now() == pytest.approx(3.0)


class TestKernelChaosSoakDeterminism:
    def test_double_run_identical_hashes(self):
        """A kernel-mode soak -- concurrent resilient reads over a chaotic
        object store -- must produce a bit-identical event trail when
        re-run from the same seed."""

        class ChaosState:
            active = True
            corrupt_probability = 0.0

            def __init__(self):
                self.fail_probability = 0.15
                self.delay_probability = 0.2
                self.delay_seconds = 0.5

        def scenario(trace):
            clock = SimClock()
            kernel = Kernel(clock)
            store = ObjectStore(ObjectStoreProfile(), clock)
            for index in range(8):
                store.put_object(f"obj-{index}", bytes(256 * 1024))
            store.attach_kernel(kernel)
            store.set_chaos(ChaosState(), RngStream(11, "soak/chaos"))
            hedge = HedgePolicy(min_observations=4)
            source = ResilientDataSource(
                ObjectStoreDataSource(store),
                policy=RetryPolicy(max_attempts=4),
                hedge=hedge,
                rng=RngStream(5, "soak/retry"),
            )
            arrivals = RngStream(3, "soak/arrivals")

            def reader(name, index):
                try:
                    result = yield from source_read(source, name, 0, 256 * 1024)
                except RemoteReadError:
                    trace.record("exhausted", clock.now(), name)
                    return
                trace.record(
                    "read", clock.now(), name, detail=f"{result.latency:.9f}"
                )

            def driver():
                for index in range(60):
                    yield Timeout(float(arrivals.rng.random()) * 0.2)
                    kernel.spawn(reader(f"obj-{index % 8}", index))

            kernel.spawn(driver())
            kernel.run()
            trace.record("wasted_bytes", clock.now(), "hedge",
                         detail=str(hedge.wasted_bytes))
            return (store.request_count, hedge.hedged_requests,
                    hedge.wasted_bytes)

        report = DeterminismHarness(
            scenario,
            tracer_factory=lambda: SimTracer(SimClock(), RngStream(1, "tr")),
        ).check()
        assert report.deterministic
        assert report.events_first > 50


class TestAttributionReconciliation:
    def test_concurrent_contended_reads_reconcile_within_one_percent(self):
        """Every trace's root wall must equal the sum of its kernel-
        measured charges -- queueing included -- within 1%."""
        clock = SimClock()
        kernel = Kernel(clock)
        tracer = SimTracer(clock, RngStream(9, "tracer"))
        device = StorageDevice(
            DeviceProfile(name="hdd", read_bandwidth=50e6,
                          write_bandwidth=40e6, seek_latency=0.01, channels=1),
            clock,
        ).attach_kernel(kernel)

        def reader(index):
            with tracer.span("root_read", actor=f"r{index}"):
                yield from device_read(device, 2 * 1024 * 1024)

        with installed_tracer(tracer):
            for index in range(6):
                kernel.spawn(reader(index))
            kernel.run()
        spans_by_trace = {}
        for span in tracer.buffer.spans():
            spans_by_trace.setdefault(span.trace_id, []).append(span)
        assert len(spans_by_trace) == 6
        waits = 0
        for spans in spans_by_trace.values():
            attribution = attribute_trace(spans)
            assert attribution.within(0.01), attribution
            waits += attribution.buckets.get("queueing", 0.0)
        # contention was real: five of six readers queued
        assert waits > 0
