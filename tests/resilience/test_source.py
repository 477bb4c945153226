"""Tests for ResilientDataSource: retry + breaker + hedging wrapper.

Retry and breaker behaviour is tested on plain ``read``; the deadline and
the hedge race need a kernel and are tested through ``read_proc``.
"""

import pytest

from repro.errors import (
    FileNotFoundInStorageError,
    RemoteReadError,
    RetriesExhaustedError,
)
from repro.resilience import CircuitBreaker, HedgePolicy, ResilientDataSource, RetryPolicy
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.sim.kernel import Cancelled, Kernel, Timeout, current_kernel, defer_io
from repro.storage.remote import ReadResult, SyntheticDataSource


class FlakySource:
    """Fails the first ``failures`` reads, then serves fixed-latency data."""

    def __init__(self, failures, latency=0.05, exc=RemoteReadError):
        self.remaining_failures = failures
        self.latency = latency
        self.exc = exc
        self.calls = 0

    def file_length(self, file_id):
        return 1024

    def read(self, file_id, offset, length):
        self.calls += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise self.exc(f"flaky failure on {file_id}")
        return ReadResult(data=b"d" * length, latency=self.latency)


def make_source(inner, **kwargs):
    kwargs.setdefault("policy", RetryPolicy(jitter=0.0))
    kwargs.setdefault("rng", RngStream(0, "test/retry"))
    return ResilientDataSource(inner, **kwargs)


class TestRetries:
    def test_transient_failure_retried_and_served(self):
        flaky = FlakySource(failures=2)
        source = make_source(flaky, policy=RetryPolicy(
            max_attempts=3, base_delay=0.1, multiplier=2.0, jitter=0.0))
        result = source.read("f", 0, 16)
        assert result.data == b"d" * 16
        assert flaky.calls == 3
        # two backoffs (0.1 + 0.2) charged on top of the final attempt
        assert result.latency == pytest.approx(0.05 + 0.1 + 0.2)
        assert source.metrics.counter("retries").value == 2
        assert source.metrics.counter("degraded_serves").value == 1

    def test_connection_error_is_retryable(self):
        flaky = FlakySource(failures=1, exc=ConnectionError)
        source = make_source(flaky)
        assert source.read("f", 0, 8).data == b"d" * 8

    def test_exhaustion_raises_with_counter(self):
        flaky = FlakySource(failures=10)
        source = make_source(flaky, policy=RetryPolicy(max_attempts=3, jitter=0.0))
        with pytest.raises(RetriesExhaustedError):
            source.read("f", 0, 8)
        assert flaky.calls == 3
        assert source.metrics.counter("retry_exhausted").value == 1

    def test_not_found_is_permanent(self):
        class Missing:
            calls = 0

            def read(self, file_id, offset, length):
                self.calls += 1
                raise FileNotFoundInStorageError(file_id)

        missing = Missing()
        source = make_source(missing)
        with pytest.raises(FileNotFoundInStorageError):
            source.read("f", 0, 8)
        assert missing.calls == 1  # never retried

    def test_clean_read_untouched(self):
        inner = SyntheticDataSource()
        inner.add_file("f", 4096)
        source = make_source(inner)
        direct = inner.read("f", 0, 64)
        via = source.read("f", 0, 64)
        assert via.data == direct.data
        assert via.latency == direct.latency
        assert source.metrics.counter("degraded_serves").value == 0

    def test_file_length_passthrough(self):
        source = make_source(FlakySource(failures=0))
        assert source.file_length("f") == 1024


class SleepingSource:
    """Serves fixed-latency data whose time is lived on the kernel: each
    read defers one sleep, and a sleep cancelled mid-way is recorded."""

    def __init__(self, latency):
        self.latency = latency
        self.calls = 0
        self.cancelled_at = []

    def file_length(self, file_id):
        return 1024

    def read(self, file_id, offset, length):
        self.calls += 1
        defer_io(self._sleep)
        return ReadResult(data=b"d" * length, latency=0.0)

    def _sleep(self):
        try:
            yield Timeout(self.latency)
        except Cancelled:
            self.cancelled_at.append(current_kernel().clock.now())
            raise
        return self.latency


def read_on_kernel(source):
    """One ``read_proc`` on an idle kernel; returns (result, clock)."""
    clock = SimClock()
    kernel = Kernel(clock)
    proc = kernel.spawn(source.read_proc("f", 0, 8))
    kernel.run()
    return proc.value, clock


class TestAttemptDeadline:
    def test_slow_attempt_abandoned_at_deadline(self):
        slow = SleepingSource(latency=5.0)
        policy = RetryPolicy(max_attempts=2, base_delay=0.1, jitter=0.0,
                             attempt_timeout=1.0)
        source = make_source(slow, policy=policy)
        result, clock = read_on_kernel(source)
        # attempt 1 is cancelled at the 1.0s deadline, then 0.1 backoff,
        # then the final attempt runs uncapped
        assert slow.cancelled_at == [1.0]
        assert result.latency == pytest.approx(1.0 + 0.1 + 5.0)
        assert clock.now() == pytest.approx(6.1)
        assert slow.calls == 2
        assert source.metrics.counter("retries").value == 1

    def test_fast_attempt_unaffected_by_deadline(self):
        fast = SleepingSource(latency=0.01)
        policy = RetryPolicy(attempt_timeout=1.0, jitter=0.0)
        source = make_source(fast, policy=policy)
        result, __ = read_on_kernel(source)
        assert result.latency == pytest.approx(0.01)
        assert fast.cancelled_at == []
        assert source.metrics.counter("retries").value == 0


class TestOutsideAKernel:
    """Nothing can be raced outside a kernel: a plain ``read`` does retry
    and breaker only and refuses what would need a race."""

    def test_hedge_refused(self):
        hedge = HedgePolicy(min_observations=5)
        flaky = FlakySource(failures=0)
        source = make_source(flaky, hedge=hedge)
        with pytest.raises(ValueError, match="read_proc"):
            source.read("f", 0, 8)
        assert flaky.calls == 0

    def test_attempt_timeout_refused(self):
        flaky = FlakySource(failures=0)
        source = make_source(
            flaky, policy=RetryPolicy(attempt_timeout=1.0, jitter=0.0)
        )
        with pytest.raises(ValueError, match="read_proc"):
            source.read("f", 0, 8)
        assert flaky.calls == 0


class TestBreakerIntegration:
    def test_failures_feed_breaker(self):
        clock = SimClock()
        breaker = CircuitBreaker("remote", clock=clock, min_volume=2,
                                 failure_threshold=1.0)
        flaky = FlakySource(failures=10)
        source = make_source(flaky, policy=RetryPolicy(max_attempts=2, jitter=0.0),
                             breaker=breaker)
        with pytest.raises(RetriesExhaustedError):
            source.read("f", 0, 8)
        assert breaker.trips == 1

    def test_open_breaker_fails_open_and_counts_degraded(self):
        """Remote storage is the final fallback: an open breaker still
        attempts the read (nothing is behind it) but counts it degraded."""
        clock = SimClock()
        breaker = CircuitBreaker("remote", clock=clock, min_volume=1,
                                 reset_timeout=1000.0)
        breaker.record_failure()
        assert not breaker.available
        healthy = FlakySource(failures=0)
        source = make_source(healthy, breaker=breaker)
        result = source.read("f", 0, 8)
        assert result.data == b"d" * 8
        assert source.metrics.counter("degraded_serves").value == 1

    def test_success_closes_half_open_breaker(self):
        clock = SimClock()
        breaker = CircuitBreaker("remote", clock=clock, min_volume=1,
                                 reset_timeout=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        source = make_source(FlakySource(failures=0), breaker=breaker)
        source.read("f", 0, 8)
        assert breaker.state.value == "closed"


class TestHedgeIntegration:
    def test_slow_primary_hedged(self):
        hedge = HedgePolicy(min_observations=5)
        for _ in range(5):
            hedge.observe(0.05)
        slow = SleepingSource(latency=10.0)
        source = make_source(slow, hedge=hedge)
        result, __ = read_on_kernel(source)
        assert hedge.hedged_requests == 1
        # the backup is the same (still slow) source here, so the primary
        # wins and the backup is cancelled, but the decision itself is what
        # is under test
        assert result.latency == pytest.approx(10.0)
        assert slow.cancelled_at == [pytest.approx(10.0)]


class TestDeterminism:
    def test_same_seed_same_latency_trail(self):
        def run(seed):
            flaky = FlakySource(failures=2)
            source = make_source(
                flaky,
                policy=RetryPolicy(max_attempts=4, jitter=0.3),
                rng=RngStream(seed, "retry"),
            )
            return source.read("f", 0, 8).latency

        assert run(5) == run(5)
        assert run(5) != run(6)
