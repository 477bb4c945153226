"""Regression tests: cancelling a resilient read mid-race leaves no orphans.

``_deadline_replay`` and ``_hedged_replay`` both race the in-flight
attempt against kernel waitables with ``any_of``, and the kernel
deliberately does NOT reap ``any_of`` losers.  If the *reader itself* is
cancelled while such a race is in flight, the race members must be
reaped by the ``except Cancelled`` handlers in
``repro.resilience.source`` -- otherwise the attempt runs on as an
orphan (holding an object-store connection slot and advancing virtual
time to its natural completion) and the deadline/hedge timer keeps the
kernel awake.  These tests pin the fixed behaviour: after a mid-race
cancel the kernel quiesces *at the cancel instant* and every connection
slot is back in the pool.
"""

import pytest

from repro.resilience.hedge import HedgePolicy
from repro.resilience.policy import RetryPolicy
from repro.resilience.source import ResilientDataSource
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel, Timeout
from repro.ports.rng import RngStream
from repro.storage.object_store import ObjectStore, ObjectStoreProfile
from repro.storage.remote import ObjectStoreDataSource
from tests.sim.replayed import source_read

OBJECT_BYTES = 4 * 1024 * 1024
# 0.03 TTFB + 4 MiB / 120 MB/s  ~=  0.065s of in-flight transfer to
# cancel into; every cancel instant below sits well inside it
TRANSFER_SECONDS = 0.03 + OBJECT_BYTES / 120e6


def build(*, policy, hedge=None, seed=7):
    clock = SimClock()
    kernel = Kernel(clock)
    store = ObjectStore(ObjectStoreProfile(), clock)
    store.put_object("f", bytes(OBJECT_BYTES))
    store.attach_kernel(kernel, max_concurrent_requests=2)
    source = ResilientDataSource(
        ObjectStoreDataSource(store),
        policy=policy,
        hedge=hedge,
        rng=RngStream(seed, "test/cancel"),
    )
    return kernel, clock, store, source


def run_cancel_scenario(kernel, store, source, cancel_at, probes):
    """Spawn a reader, cancel it at ``cancel_at``, record slot usage."""
    results = []

    def reader():
        results.append(
            (yield from source_read(source, "f", 0, OBJECT_BYTES))
        )

    reader_proc = kernel.spawn(reader())

    def canceller():
        yield Timeout(cancel_at)
        probes["in_use_before_cancel"] = store._connections.in_use
        probes["cancel_returned"] = reader_proc.cancel("client gone")
        probes["in_use_after_cancel"] = store._connections.in_use

    kernel.spawn(canceller())
    kernel.run()
    return reader_proc, results


class TestDeadlineRaceCancellation:
    def test_cancel_mid_deadline_race_reaps_attempt_and_timer(self):
        # attempt_timeout (0.2) > transfer (~0.065) > cancel_at (0.02):
        # at the cancel instant the attempt process is mid-transfer,
        # holding a connection slot, raced against a pending 0.2s timer
        kernel, clock, store, source = build(
            policy=RetryPolicy(max_attempts=3, attempt_timeout=0.2, jitter=0.0),
        )
        probes = {}
        reader_proc, results = run_cancel_scenario(
            kernel, store, source, cancel_at=0.02, probes=probes
        )
        assert probes["cancel_returned"] is True
        assert reader_proc.cancelled
        assert results == []
        # the in-flight attempt held a slot; cancellation released it
        # synchronously through the attempt's try/finally
        assert probes["in_use_before_cancel"] == 1
        assert probes["in_use_after_cancel"] == 0
        assert store._connections.in_use == 0
        assert store._connections.queue_depth == 0
        # the kernel quiesced AT the cancel instant: neither the orphaned
        # attempt running to ~0.065s nor the deadline timer firing at
        # 0.2s kept it awake
        assert clock.now() == pytest.approx(0.02)


class TestHedgeRaceCancellation:
    def _armed_hedge(self, observation):
        hedge = HedgePolicy(min_observations=5)
        for _ in range(6):
            hedge.observe(observation)
        return hedge

    def test_cancel_with_primary_and_backup_in_flight(self):
        # tiny observations arm a near-zero hedge threshold, so by the
        # 0.03s cancel instant the backup has launched and both race
        # members hold connection slots
        hedge = self._armed_hedge(0.001)
        kernel, clock, store, source = build(
            policy=RetryPolicy(max_attempts=3), hedge=hedge,
        )
        probes = {}
        reader_proc, results = run_cancel_scenario(
            kernel, store, source, cancel_at=0.03, probes=probes
        )
        assert hedge.hedged_requests == 1  # the backup really launched
        assert reader_proc.cancelled
        assert results == []
        assert probes["in_use_before_cancel"] == 2
        assert probes["in_use_after_cancel"] == 0
        assert store._connections.in_use == 0
        assert clock.now() == pytest.approx(0.03)

    def test_cancel_before_hedge_threshold_reaps_timer(self):
        # threshold (~0.05) > cancel_at (0.02): only the primary and the
        # hedge-threshold timer are live; no backup exists yet
        hedge = self._armed_hedge(0.05)
        kernel, clock, store, source = build(
            policy=RetryPolicy(max_attempts=3), hedge=hedge,
        )
        probes = {}
        reader_proc, results = run_cancel_scenario(
            kernel, store, source, cancel_at=0.02, probes=probes
        )
        assert hedge.hedged_requests == 0  # backup never launched
        assert reader_proc.cancelled
        assert results == []
        assert probes["in_use_before_cancel"] == 1
        assert probes["in_use_after_cancel"] == 0
        assert store._connections.in_use == 0
        # the hedge-threshold timer was reaped, not left to fire at 0.05s
        assert clock.now() == pytest.approx(0.02)

    def test_uncancelled_read_still_completes_normally(self):
        # the reap handlers must be inert on the happy path
        hedge = self._armed_hedge(0.001)
        kernel, clock, store, source = build(
            policy=RetryPolicy(max_attempts=3), hedge=hedge,
        )
        results = []

        def reader():
            results.append(
                (yield from source_read(source, "f", 0, OBJECT_BYTES))
            )

        kernel.spawn(reader())
        kernel.run()
        assert len(results) == 1
        assert len(results[0].data) == OBJECT_BYTES
        assert store._connections.in_use == 0
