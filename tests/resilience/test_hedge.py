"""Tests for hedged reads: the policy's arming and the kernel race.

The race (``ResilientDataSource._hedged_replay``) runs on the event
kernel.  At zero contention it must land exactly where the tail-at-scale
formula ``min(primary, threshold + backup)`` says, with the same counters
and the same observed history as the formula's accounting.
"""

import pytest

from repro.errors import RemoteReadError, RetriesExhaustedError
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.resilience import HedgePolicy, ResilientDataSource, RetryPolicy
from repro.sim.kernel import Kernel, Timeout, defer_io
from repro.storage.remote import ReadResult
from tests.sim.replayed import source_read


def armed_policy(baseline=0.1, n=20, **kwargs):
    policy = HedgePolicy(min_observations=n, **kwargs)
    for _ in range(n):
        policy.observe(baseline)
    return policy


def _sleep(seconds):
    yield Timeout(seconds)
    return seconds


class ScriptedSource:
    """Each read takes the next scripted step: a latency (lived as a
    kernel sleep when the read is replayed) or an exception (raised)."""

    def __init__(self, *steps):
        self.steps = list(steps)

    def file_length(self, file_id):
        return 1024

    def read(self, file_id, offset, length):
        step = self.steps.pop(0)
        if isinstance(step, BaseException):
            raise step
        defer_io(lambda: _sleep(step))
        return ReadResult(data=b"d" * length, latency=0.0)


def race(policy, *steps):
    """Hedged reads through ``policy`` on an idle kernel, one after the
    other, the source following ``steps``; returns the reader processes."""
    kernel = Kernel(SimClock())
    source = ResilientDataSource(
        ScriptedSource(*steps),
        policy=RetryPolicy(jitter=0.0),
        rng=RngStream(0, "test/hedge"),
        hedge=policy,
    )
    procs = []

    def reader():
        while source.inner.steps:
            proc = kernel.spawn(source_read(source, "f", 0, 8))
            procs.append(proc)
            yield proc

    kernel.spawn(reader())
    kernel.run()
    return procs


def race_latency(policy, primary, backup) -> float:
    (proc,) = race(policy, primary, backup)
    return proc.value.latency


def last_observed(policy, count=1) -> list[float]:
    return list(policy._history)[-count:]


class TestArming:
    def test_unarmed_until_min_observations(self):
        policy = HedgePolicy(min_observations=5)
        for _ in range(4):
            policy.observe(0.1)
        assert policy.threshold() is None
        policy.observe(0.1)
        assert policy.threshold() == pytest.approx(0.1)

    def test_threshold_is_percentile(self):
        policy = HedgePolicy(min_observations=10, threshold_percentile=95.0)
        for latency in range(1, 101):
            policy.observe(float(latency))
        assert policy.threshold() == pytest.approx(95.05, abs=0.5)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            HedgePolicy(threshold_percentile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_observations=0)
        with pytest.raises(ValueError):
            HedgePolicy(min_observations=10, max_history=5)
        with pytest.raises(ValueError):
            HedgePolicy().observe(-1.0)


class TestApply:
    """Each outcome ``min(primary, threshold + backup)`` prescribes --
    pass-through, backup win, primary win, failed backup -- lived by the
    kernel race at zero contention."""

    def test_fast_primary_passes_through(self):
        policy = armed_policy(baseline=0.1)
        # a primary done before the threshold never launches a backup, so
        # the script holds no backup step
        (proc,) = race(policy, 0.05)
        assert proc.value.latency == 0.05
        assert policy.hedged_requests == 0
        assert policy.hedge_wins == 0
        assert last_observed(policy) == [0.05]

    def test_backup_wins_when_primary_is_slow(self):
        policy = armed_policy(baseline=0.1)
        threshold = policy.threshold()
        latency = race_latency(policy, 10.0, 0.1)
        assert latency == min(10.0, threshold + 0.1)
        assert policy.hedged_requests == 1
        assert policy.hedge_wins == 1
        assert policy.metrics.counter("hedged_requests").value == 1
        assert policy.metrics.counter("hedge_wins").value == 1
        assert last_observed(policy) == [latency]

    def test_primary_wins_when_backup_is_slower(self):
        policy = armed_policy(baseline=0.1)
        threshold = policy.threshold()
        latency = race_latency(policy, 0.2, 50.0)
        assert latency == min(0.2, threshold + 50.0) == 0.2
        assert policy.hedged_requests == 1
        assert policy.hedge_wins == 0
        assert last_observed(policy) == [0.2]

    def test_backup_exception_lets_primary_stand(self):
        policy = armed_policy(baseline=0.1)
        latency = race_latency(policy, 5.0, ConnectionError("no live backup"))
        assert latency == 5.0
        assert policy.hedged_requests == 1
        assert policy.hedge_wins == 0
        assert last_observed(policy) == [5.0]

    def test_backup_failure_is_accounted(self):
        """A degraded hedge is not silent: hedge_errors increments and the
        error breakdown names the concrete failure type."""
        policy = armed_policy(baseline=0.1)
        race_latency(policy, 5.0, ConnectionError("no live backup"))
        assert policy.hedge_errors == 1
        assert policy.metrics.counter("hedge_errors").value == 1
        assert policy.metrics.error_breakdown() == {
            "hedge_backup": {"ConnectionError": 1}
        }

    def test_modelled_failures_are_absorbed(self):
        # enough baseline observations that three 5 s reads leave the
        # threshold at 0.1, so every read below hedges
        policy = armed_policy(baseline=0.1, n=100)
        procs = race(
            policy,
            5.0, RemoteReadError("down"),
            5.0, RetriesExhaustedError("done"),
            5.0, TimeoutError("slow"),
        )
        assert [proc.value.latency for proc in procs] == [5.0, 5.0, 5.0]
        assert policy.hedged_requests == 3
        assert policy.hedge_wins == 0
        assert policy.hedge_errors == 3
        assert policy.metrics.counter("hedge_errors").value == 3
        assert last_observed(policy, 3) == [5.0, 5.0, 5.0]

    def test_unexpected_exception_propagates(self):
        """Narrowed absorption: a programming error (not a modelled
        failure) must not be swallowed as a degraded hedge."""
        policy = armed_policy(baseline=0.1)
        (proc,) = race(policy, 5.0, KeyError("wrong replica map key"))
        assert isinstance(proc.exception, KeyError)
        assert policy.hedge_errors == 0
        assert len(policy._history) == 20  # nothing served, nothing observed

    def test_effective_latency_feeds_history(self):
        policy = armed_policy(baseline=0.1, n=5)
        threshold = policy.threshold()
        before = len(policy._history)
        race_latency(policy, 10.0, 0.1)
        assert len(policy._history) == before + 1
        # the effective latency, not the primary's, joins the history
        assert last_observed(policy) == [threshold + 0.1]
