"""Tests for the scheduler profiler (repro.obs.profiler)."""

import json
from types import SimpleNamespace

import pytest

from repro.obs.profiler import (
    BLOCKED,
    DETAIL_CAP,
    NOOP_PROFILER,
    READY,
    RUNNING,
    SLEEPING,
    KernelProfiler,
    NoopKernelProfiler,
    classify_wait,
    process_type,
)
from repro.ports.clock import SimClock
from repro.sim.hostclock import installed_host_clock
from repro.sim.kernel import (
    AllOf,
    Event,
    Kernel,
    Resource,
    Timeout,
    Timer,
    any_of,
)


class TestProcessType:
    @pytest.mark.parametrize("name,expected", [
        ("block-read/17", "block-read"),
        ("worker-3", "worker"),
        ("ingest_42", "ingest"),
        ("q00042", "q"),
        ("trace-driver", "trace-driver"),
        ("plain", "plain"),
        ("123", "123"),  # all digits: keep the name rather than emptying it
    ])
    def test_strips_trailing_instance_ids(self, name, expected):
        assert process_type(name) == expected


class TestClassifyWait:
    @pytest.fixture()
    def kernel(self):
        return Kernel()

    def test_timeout_is_sleeping(self):
        assert classify_wait(Timeout(1.0)) == (SLEEPING, "")

    def test_timer_is_sleeping_with_name(self, kernel):
        timer = Timer(kernel, 5.0, name="lease")
        assert classify_wait(timer) == (SLEEPING, "lease")

    def test_request_is_blocked_on_resource(self, kernel):
        pool = Resource(kernel, 2, name="device/hdd")
        assert classify_wait(pool.request()) == (BLOCKED, "resource:device/hdd")

    def test_event_is_blocked(self, kernel):
        assert classify_wait(Event(kernel, name="ready")) == (BLOCKED, "event:ready")
        assert classify_wait(Event(kernel)) == (BLOCKED, "event")

    def test_process_join_is_blocked_on_ptype(self, kernel):
        def idle():
            yield Timeout(1.0)

        proc = kernel.spawn(idle(), name="worker-9")
        assert classify_wait(proc) == (BLOCKED, "join:worker")

    def test_all_timer_combinator_sleeps(self, kernel):
        group = any_of(Timeout(1.0), Timer(kernel, 2.0))
        assert classify_wait(group) == (SLEEPING, "timer-group")

    def test_mixed_combinators_block(self, kernel):
        mixed = any_of(Timeout(1.0), Event(kernel))
        assert classify_wait(mixed) == (BLOCKED, "any_of")
        both = AllOf([Event(kernel), Event(kernel)])
        assert classify_wait(both) == (BLOCKED, "all_of")

    def test_unknown_waitable_blocks_without_detail(self):
        assert classify_wait(object()) == (BLOCKED, "")


def contended_run(profiler=None, n_workers=4):
    """A tiny deterministic scenario: workers contend on one slot."""
    kernel = Kernel()
    if profiler is not None:
        kernel.attach_profiler(profiler(kernel.clock) if callable(profiler)
                               else profiler)
    pool = Resource(kernel, 1, name="slot")
    order = []

    def worker(i):
        yield Timeout(0.1 * i)
        req = pool.request()
        yield req
        try:
            yield Timeout(0.5)
            order.append(i)
        finally:
            pool.release(req)

    for i in range(n_workers):
        kernel.spawn(worker(i), name=f"worker-{i}")
    kernel.run_all()
    return kernel, order


class TestNoopProfiler:
    def test_noop_has_no_state(self):
        assert NoopKernelProfiler.enabled is False
        assert NOOP_PROFILER.enabled is False
        assert not hasattr(NOOP_PROFILER, "__dict__")

    def test_attach_noop_keeps_hooks_cold(self):
        kernel = Kernel()
        kernel.attach_profiler(NOOP_PROFILER)
        assert kernel._profiling is False

    def test_noop_run_matches_unprofiled_run(self):
        __, bare = contended_run()
        __, noop = contended_run(profiler=NOOP_PROFILER)
        assert noop == bare


class TestWaitStateAttribution:
    def test_profiled_run_matches_unprofiled_results(self):
        __, bare = contended_run()
        __, profiled = contended_run(profiler=KernelProfiler)
        assert profiled == bare

    def test_states_telescope_to_lifetime_exactly(self):
        kernel, __ = contended_run(profiler=KernelProfiler)
        profile = kernel.profiler.finalize()
        rows = profile.per_process()
        assert len(rows) == 4
        for row in rows:
            states = row["states"]
            total = (states[READY] + states[RUNNING]
                     + states[BLOCKED] + states[SLEEPING])
            # exact float identity, not approx: lifetime IS the sum
            assert total == row["lifetime"]
            assert row["end"] is not None
            assert abs(row["lifetime"] - (row["end"] - row["birth"])) < 1e-9

    def test_contention_shows_up_as_blocked_time(self):
        kernel, __ = contended_run(profiler=KernelProfiler)
        profile = kernel.profiler.finalize()
        states = profile.wait_states()["worker"]
        # worker 3 alone waits ~1.2s for the slot behind 0, 1, 2
        assert states[BLOCKED] > 1.0
        assert states[SLEEPING] >= 4 * 0.5  # each holds the slot 0.5s
        detail = profile.virtual_report()["wait_details"]
        assert "worker;blocked;resource:slot" in detail

    def test_counters_track_the_event_loop(self):
        kernel, __ = contended_run(profiler=KernelProfiler)
        profile = kernel.profiler.finalize()
        counters = profile.counters()
        assert counters["spawns"] == 4
        assert counters["completions"] == 4
        assert counters["cancellations"] == 0
        assert counters["events_popped"] == kernel.events_fired
        assert counters["timer_inserts"] > 0
        assert counters["heap_high_water"] >= 1

    def test_timer_cancel_counted(self):
        kernel = Kernel()
        kernel.attach_profiler(KernelProfiler(kernel.clock))
        timer = Timer(kernel, 10.0, name="lease")
        timer.cancel()
        kernel.run_all()
        counters = kernel.profiler.finalize().counters()
        assert counters["timer_cancels"] == 1
        assert counters["events_reaped"] == 1

    def test_folded_lines_are_integer_microseconds(self):
        kernel, __ = contended_run(profiler=KernelProfiler)
        folded = kernel.profiler.finalize().folded_wait_states()
        assert folded
        for line in folded.splitlines():
            frames, weight = line.rsplit(" ", 1)
            assert int(weight) > 0
            assert frames.split(";")[0] == "worker"


class TestCancellation:
    def test_cancel_started_process_closes_record(self):
        kernel = Kernel()
        kernel.attach_profiler(KernelProfiler(kernel.clock))

        def sleeper():
            yield Timeout(100.0)

        proc = kernel.spawn(sleeper(), name="sleeper")
        kernel.run_until(1.0)
        proc.cancel()
        profile = kernel.profiler.finalize()
        assert profile.counters()["cancellations"] == 1
        (row,) = profile.per_process()
        assert row["end"] == 1.0
        assert row["states"][SLEEPING] == pytest.approx(1.0)

    def test_cancel_unstarted_process_still_counted(self):
        kernel = Kernel()
        kernel.attach_profiler(KernelProfiler(kernel.clock))

        def never_runs():
            yield Timeout(1.0)

        proc = kernel.spawn_at(5.0, never_runs(), name="late")
        proc.cancel()
        kernel.run_all()
        profile = kernel.profiler.finalize()
        assert profile.counters()["cancellations"] == 1
        (row,) = profile.per_process()
        assert row["end"] is not None
        assert row["resumes"] == 0


class TestDetailCap:
    def test_detail_cardinality_folds_into_other(self):
        clock = SimClock()
        profiler = KernelProfiler(clock)
        proc = SimpleNamespace(pid=1, name="chatty", cancelled=False)
        profiler.on_spawn(proc)
        for i in range(DETAIL_CAP + 20):
            profiler.on_wait(proc, BLOCKED, f"event:e{i}")
            clock.advance(1.0)
            profiler.on_runnable(proc)
            clock.advance(0.0)
        profiler.on_exit(proc)
        details = profiler.finalize().virtual_report()["wait_details"]
        blocked = [k for k in details if k.startswith("chatty;blocked;")]
        assert len(blocked) <= DETAIL_CAP + 1
        assert "chatty;blocked;other" in details
        # nothing lost to the fold: total blocked time is exact
        total = sum(v for k, v in details.items()
                    if k.startswith("chatty;blocked"))
        assert total == pytest.approx(DETAIL_CAP + 20)


class TestDeterminismAndHostSegregation:
    def test_double_run_virtual_profile_byte_identical(self):
        docs = []
        for __ in range(2):
            kernel, __order = contended_run(profiler=KernelProfiler)
            docs.append(kernel.profiler.finalize().to_json(include_host=False))
        assert docs[0] == docs[1]
        assert "host" not in json.loads(docs[0])

    def test_host_report_segregated_and_deterministic_under_fake_clock(self):
        ticks = iter(0.001 * i for i in range(10_000))
        with installed_host_clock(cpu=lambda: next(ticks)):
            kernel, __ = contended_run(profiler=KernelProfiler)
            profile = kernel.profiler.finalize()
        host = profile.host_report()["per_ptype"]
        assert set(host) == {"worker"}
        assert host["worker"]["resumes"] > 0
        assert host["worker"]["cpu_seconds"] > 0.0
        assert host["worker"]["cpu_us_per_resume"] == pytest.approx(
            1e6 * host["worker"]["cpu_seconds"] / host["worker"]["resumes"]
        )
        doc = json.loads(profile.to_json(include_host=True))
        assert set(doc) == {"virtual", "host"}
        # host numbers never leak into the determinism-checked side
        assert "cpu_seconds" not in json.dumps(doc["virtual"])

    def test_compact_report_drops_per_process_rows(self):
        kernel, __ = contended_run(profiler=KernelProfiler)
        profile = kernel.profiler.finalize()
        compact = json.loads(profile.to_json(include_processes=False))
        assert "processes" not in compact["virtual"]
        full = json.loads(profile.to_json())
        assert len(full["virtual"]["processes"]) == 4
        # the rollups are identical either way
        assert compact["virtual"]["wait_states"] == full["virtual"]["wait_states"]

    def test_folded_host_cpu_uses_cpu_microseconds(self):
        ticks = iter(0.001 * i for i in range(10_000))
        with installed_host_clock(cpu=lambda: next(ticks)):
            kernel, __ = contended_run(profiler=KernelProfiler)
        folded = kernel.profiler.finalize().folded_host_cpu()
        (line,) = folded.splitlines()
        ptype, us = line.rsplit(" ", 1)
        assert ptype == "worker"
        assert int(us) > 0
