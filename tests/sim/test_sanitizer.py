"""Tests for the runtime determinism sanitizer.

The harness must (a) certify a properly seeded scenario, (b) catch the
classic leaks -- unseeded randomness shared across runs and set-ordering
reaching the event trail -- and (c) pinpoint the *first* divergent event,
because "run 7021 of 9000 differed" is debuggable and "hashes differ" is
not.
"""

import pytest

from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel
from repro.ports.rng import RngStream
from repro.sim.sanitizer import (
    DeterminismHarness,
    DeterminismViolation,
    EventTrace,
    SimEvent,
    SpanLeakDetector,
    SpanLeakViolation,
    WriteConflictViolation,
    WriteWriteConflictDetector,
)


def seeded_scenario(trace: EventTrace) -> float:
    """A well-behaved scenario: all time from SimClock, all randomness
    from a named stream seeded inside the run."""
    clock = SimClock()
    loop = Kernel(clock)
    rng = RngStream(7, "sanitizer-demo")
    total = 0.0
    for index, delay in enumerate(rng.rng.uniform(0.1, 2.0, size=16)):
        def fire(index=index):
            trace.record("fire", clock.now(), f"job-{index}")
        loop.call_at(clock.now() + float(delay) * (index + 1), fire)
    loop.run_all()
    trace.record("done", clock.now(), "loop")
    return clock.now()


class TestEventTrace:
    def test_rolling_hash_commits_to_sequence(self):
        a, b = EventTrace(), EventTrace()
        for trace in (a, b):
            trace.record("get", 1.0, "worker-0")
            trace.record("put", 2.0, "worker-1", detail="page-9")
        assert a.rolling_hash() == b.rolling_hash()
        b.record("get", 3.0, "worker-0")
        assert a.rolling_hash() != b.rolling_hash()

    def test_hash_depends_on_order(self):
        a, b = EventTrace(), EventTrace()
        a.record("get", 1.0, "w0")
        a.record("put", 1.0, "w1")
        b.record("put", 1.0, "w1")
        b.record("get", 1.0, "w0")
        assert a.rolling_hash() != b.rolling_hash()

    def test_record_all_takes_injector_shape(self):
        trace = EventTrace()
        trace.record_all([(900.0, "crash", "cw-0"), (1200.0, "revive", "cw-0")])
        assert trace.events == [
            SimEvent("crash", 900.0, "cw-0"),
            SimEvent("revive", 1200.0, "cw-0"),
        ]


class TestDeterminismHarness:
    def test_seeded_scenario_passes(self):
        report = DeterminismHarness(seeded_scenario).check()
        assert report.deterministic
        assert report.hash_first == report.hash_second
        assert report.events_first == report.events_second == 17

    def test_catches_unseeded_randomness_leak(self):
        """Injected nondeterminism: the scenario draws from one generator
        that persists across runs, so run 2 sees different draws -- the
        exact leak DET002 exists to prevent statically."""
        shared = RngStream(3, "leaky")  # NOT re-seeded per run

        def leaky(trace: EventTrace) -> None:
            clock = SimClock()
            for __ in range(8):
                clock.advance(float(shared.rng.uniform(0.1, 1.0)))
                trace.record("tick", clock.now(), "leaky-actor")

        with pytest.raises(DeterminismViolation) as excinfo:
            DeterminismHarness(leaky).check()
        report = excinfo.value.report
        assert report.divergence is not None
        assert report.divergence.index == 0  # first draw already differs
        assert "diverged" in report.divergence.describe()

    def test_catches_set_ordering_leak(self):
        """Injected nondeterminism: event order taken from set iteration.
        A set's iteration order is a function of its insertion *history*
        (hash collisions resolve by probing), not its contents -- so two
        runs that build an equal set in different orders emit different
        event trails.  This is the DET003 leak made observable at runtime."""
        run_count = [0]

        class Colliding:
            """Same hash for every instance: iteration order now follows
            the probe chains, i.e. the insertion history."""

            def __init__(self, name: str) -> None:
                self.name = name

            def __hash__(self) -> int:
                return 1

            def __eq__(self, other) -> bool:
                return isinstance(other, Colliding) and self.name == other.name

        def set_leak(trace: EventTrace) -> None:
            run_count[0] += 1
            names = [f"actor-{i}" for i in range(12)]
            if run_count[0] == 2:
                names = names[::-1]  # equal set, different insertion order
            members = {Colliding(n) for n in names}
            for member in members:  # set order leaks into the event trail
                trace.record("visit", 0.0, member.name)

        with pytest.raises(DeterminismViolation):
            DeterminismHarness(set_leak).check()

    def test_catches_missing_tail_event(self):
        run_count = [0]

        def truncating(trace: EventTrace) -> None:
            run_count[0] += 1
            trace.record("start", 0.0, "a")
            if run_count[0] == 1:
                trace.record("finish", 1.0, "a")

        with pytest.raises(DeterminismViolation) as excinfo:
            DeterminismHarness(truncating).check()
        divergence = excinfo.value.report.divergence
        assert divergence.index == 1
        assert divergence.second is None
        assert "second run ended" in divergence.describe()

    def test_catches_unrecorded_result_divergence(self):
        run_count = [0]

        def quiet(trace: EventTrace) -> int:
            run_count[0] += 1
            trace.record("only", 0.0, "a")
            return run_count[0]  # state the trail does not capture

        report = DeterminismHarness(quiet).run_twice()
        assert not report.deterministic
        assert report.result_first != report.result_second

    def test_run_twice_reports_without_raising(self):
        report = DeterminismHarness(seeded_scenario).run_twice()
        assert report.deterministic
        assert report.divergence is None


class TestWriteWriteConflictDetector:
    def test_clean_interleaving_passes(self):
        det = WriteWriteConflictDetector()
        det.record_write("blk_17", actor="dn-1", timestamp=1.0, generation=5)
        det.record_write("blk_17", actor="dn-2", timestamp=2.0, generation=5)
        det.record_write("blk_17", actor="dn-1", timestamp=2.0, generation=6)
        assert det.clean
        det.assert_clean()
        assert det.writes == 3

    def test_same_instant_same_generation_flags(self):
        det = WriteWriteConflictDetector()
        det.record_write("blk_17", actor="dn-1", timestamp=3.0, generation=5)
        conflict = det.record_write(
            "blk_17", actor="dn-2", timestamp=3.0, generation=5
        )
        assert conflict is not None
        assert conflict.first_actor == "dn-1"
        assert conflict.second_actor == "dn-2"
        assert not det.clean
        with pytest.raises(WriteConflictViolation) as excinfo:
            det.assert_clean()
        assert "generation-stamp violation" in str(excinfo.value)

    def test_same_instant_with_version_bump_passes(self):
        det = WriteWriteConflictDetector()
        det.record_write("p0", actor="a", timestamp=4.0, generation=1)
        det.record_write("p0", actor="b", timestamp=4.0, generation=2)
        assert det.clean

    def test_same_actor_rewrite_passes(self):
        det = WriteWriteConflictDetector()
        det.record_write("p0", actor="a", timestamp=4.0, generation=1)
        det.record_write("p0", actor="a", timestamp=4.0, generation=1)
        assert det.clean

    def test_distinct_keys_never_conflict(self):
        det = WriteWriteConflictDetector()
        det.record_write("p0", actor="a", timestamp=1.0, generation=1)
        det.record_write("p1", actor="b", timestamp=1.0, generation=1)
        assert det.clean

    def test_generation_regression_rejected(self):
        det = WriteWriteConflictDetector()
        det.record_write("p0", actor="a", timestamp=1.0, generation=5)
        with pytest.raises(ValueError):
            det.record_write("p0", actor="b", timestamp=2.0, generation=4)


@pytest.mark.determinism
class TestSanitizerFixtures:
    """The opt-in path every test gets via the root conftest."""

    def test_harness_fixture(self, determinism_harness):
        assert determinism_harness(seeded_scenario).check().deterministic

    def test_conflict_detector_fixture(self, write_conflict_detector):
        clock = SimClock()
        write_conflict_detector.record_write(
            "blk_1", actor="w0", timestamp=clock.now(), generation=0
        )
        clock.advance(1.0)
        write_conflict_detector.record_write(
            "blk_1", actor="w1", timestamp=clock.now(), generation=0
        )
        write_conflict_detector.assert_clean()

    def test_metastore_writes_respect_generation_stamps(
        self, write_conflict_detector
    ):
        """Wire the detector into real cache writes: two workers putting
        pages of the same HDFS block at the same virtual instant must be
        writing *different generations* (the `blk@gs` identity), never
        the same one."""
        from repro.core.page import PageId

        clock = SimClock()
        for worker, generation in (("w0", 5), ("w1", 6)):
            page_id = PageId(f"blk_17@gs{generation}", 0)
            write_conflict_detector.record_write(
                str(page_id), actor=worker,
                timestamp=clock.now(), generation=generation,
            )
        write_conflict_detector.assert_clean()

@pytest.mark.determinism
class TestSpanLeakDetector:
    def _tracer(self):
        from repro.obs.buffer import SpanBuffer
        from repro.obs.tracer import SimTracer

        return SimTracer(
            SimClock(), RngStream(11, "leak-test"), buffer=SpanBuffer()
        )

    def test_clean_when_all_spans_closed(self):
        tracer = self._tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        detector = SpanLeakDetector(tracer)
        assert detector.clean
        detector.assert_clean()

    def test_flags_open_span(self):
        tracer = self._tracer()
        span = tracer.span("leaky", actor="w0")
        detector = SpanLeakDetector(tracer)
        assert not detector.clean
        (leak,) = detector.leaks()
        assert leak.name == "leaky"
        assert leak.actor == "w0"
        with pytest.raises(SpanLeakViolation) as excinfo:
            detector.assert_clean()
        assert "leaky" in str(excinfo.value)
        span.finish()
        assert detector.clean

    def test_noop_tracer_always_clean(self):
        from repro.obs.tracer import NOOP_TRACER

        assert SpanLeakDetector(NOOP_TRACER).clean

    def test_harness_runs_under_tracer_and_checks_leaks(self):
        from repro.obs.tracer import current_tracer

        def traced_scenario(trace):
            tracer = current_tracer()
            assert tracer.enabled
            with tracer.span("work") as span:
                span.charge("compute", 0.5)
                trace.record("work", 0.0, "scenario")
            return "ok"

        harness = DeterminismHarness(
            traced_scenario, tracer_factory=self._tracer
        )
        assert harness.check().deterministic

    def test_harness_raises_on_leaked_span(self):
        from repro.obs.tracer import current_tracer

        def leaky_scenario(trace):
            current_tracer().span("never-closed")
            trace.record("work", 0.0, "scenario")

        harness = DeterminismHarness(
            leaky_scenario, tracer_factory=self._tracer
        )
        with pytest.raises(SpanLeakViolation):
            harness.run_twice()
