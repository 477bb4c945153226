"""Tests for the distributed cache tier (Figure 6's middle layer)."""

import pytest

from repro.distributed import CacheWorker, DistributedCacheClient
from repro.ports.clock import SimClock
from repro.storage.remote import SyntheticDataSource

KIB = 1024
MIB = 1024 * KIB


def make_tier(n_workers=4, max_replicas=2, offline_timeout=600.0):
    clock = SimClock()
    source = SyntheticDataSource(base_latency=0.03, bandwidth=120e6)
    for n in range(8):
        source.add_file(f"lake/file-{n}", 4 * MIB)
    workers = [
        CacheWorker(
            f"cw-{i}", source, cache_capacity_bytes=32 * MIB,
            page_size=256 * KIB, clock=clock,
        )
        for i in range(n_workers)
    ]
    client = DistributedCacheClient(
        workers, source, max_replicas=max_replicas,
        offline_timeout=offline_timeout, clock=clock,
    )
    return clock, source, workers, client


class TestWorker:
    def test_serves_correct_bytes(self):
        __, source, workers, __ = make_tier()
        direct = source.read("lake/file-0", 100, 200).data
        result = workers[0].serve_read("lake/file-0", 100, 200)
        assert result.data == direct
        assert workers[0].requests_served == 1

    def test_network_rtt_charged(self):
        __, __, workers, __ = make_tier()
        workers[0].serve_read("lake/file-0", 0, 1024)
        warm = workers[0].serve_read("lake/file-0", 0, 1024)
        assert warm.latency >= workers[0].network_rtt

    def test_offline_worker_refuses(self):
        __, __, workers, __ = make_tier()
        workers[0].fail()
        with pytest.raises(ConnectionError):
            workers[0].serve_read("lake/file-0", 0, 10)
        workers[0].recover()
        workers[0].serve_read("lake/file-0", 0, 10)

    def test_invalid_rtt(self):
        source = SyntheticDataSource()
        with pytest.raises(ValueError):
            CacheWorker("w", source, network_rtt=-1.0)


class TestRouting:
    def test_same_file_same_worker(self):
        __, __, workers, client = make_tier()
        for __ in range(4):
            client.read("lake/file-0", 0, 64 * KIB)
        serving = [w for w in workers if w.requests_served > 0]
        assert len(serving) == 1
        assert serving[0].requests_served == 4

    def test_warm_tier_hits(self):
        __, __, __, client = make_tier()
        client.read("lake/file-0", 0, 64 * KIB)
        client.read("lake/file-0", 0, 64 * KIB)
        assert client.tier_hit_ratio() > 0
        assert client.cached_bytes() > 0

    def test_correct_bytes_through_tier(self):
        __, source, __, client = make_tier()
        direct = source.read("lake/file-3", 512, 1000).data
        assert client.read("lake/file-3", 512, 1000).data == direct

    def test_validation(self):
        source = SyntheticDataSource()
        with pytest.raises(ValueError):
            DistributedCacheClient([], source)
        __, __, workers, __ = make_tier()
        with pytest.raises(ValueError):
            DistributedCacheClient(workers, source, max_replicas=0)


class TestFailover:
    def _primary_for(self, client, file_id):
        return client.ring.candidates(file_id, 1)[0]

    def test_failover_to_secondary(self):
        __, source, workers, client = make_tier()
        primary_name = self._primary_for(client, "lake/file-0")
        client.worker(primary_name).fail()
        result = client.read("lake/file-0", 0, 64 * KIB)
        direct = source.read("lake/file-0", 0, 64 * KIB).data
        assert result.data == direct
        assert client.failovers == 1
        assert client.remote_fallbacks == 0

    def test_remote_fallback_when_all_replicas_down(self):
        __, source, workers, client = make_tier(n_workers=2)
        for worker in workers:
            worker.fail()
        result = client.read("lake/file-1", 0, 64 * KIB)
        assert result.data == source.read("lake/file-1", 0, 64 * KIB).data
        assert client.remote_fallbacks == 1

    def test_lazy_recovery_restores_primary(self):
        """A worker back within the timeout gets its keys back untouched."""
        clock, __, workers, client = make_tier(offline_timeout=600.0)
        primary_name = self._primary_for(client, "lake/file-0")
        client.read("lake/file-0", 0, 64 * KIB)  # warm the primary
        client.worker(primary_name).fail()
        client.read("lake/file-0", 0, 64 * KIB)  # failover marks offline
        clock.advance(60.0)  # well within the timeout
        client.notify_recovered(primary_name)
        before = client.worker(primary_name).requests_served
        client.read("lake/file-0", 0, 64 * KIB)
        assert client.worker(primary_name).requests_served == before + 1
        # and it still has its warm pages
        assert client.worker(primary_name).hit_ratio > 0

    def test_expired_worker_leaves_ring(self):
        clock, __, workers, client = make_tier(offline_timeout=100.0)
        primary_name = self._primary_for(client, "lake/file-0")
        client.worker(primary_name).fail()
        client.read("lake/file-0", 0, 64 * KIB)
        clock.advance(200.0)  # past the timeout
        client.read("lake/file-0", 0, 64 * KIB)
        assert primary_name not in client.ring.nodes

    def test_offline_skipped_without_churn(self):
        """While offline within the timeout, other workers' keys do not
        move (lazy data movement)."""
        clock, __, workers, client = make_tier()
        mapping_before = {
            f"lake/file-{n}": client.ring.candidates(f"lake/file-{n}", 1)[0]
            for n in range(8)
        }
        victim = mapping_before["lake/file-0"]
        client.worker(victim).fail()
        client.read("lake/file-0", 0, 1024)
        for file_id, owner in mapping_before.items():
            if owner != victim:
                assert client.ring.candidates(file_id, 1)[0] == owner


class TestCrashMidRead:
    def _primary_for(self, client, file_id):
        return client.ring.candidates(file_id, 1)[0]

    def test_crash_mid_read_fails_over(self):
        """A worker dying while serving drops the connection; the client
        counts a failover and the secondary replica serves the bytes."""
        __, source, workers, client = make_tier()
        primary_name = self._primary_for(client, "lake/file-0")
        client.worker(primary_name).schedule_crash_after(1)
        result = client.read("lake/file-0", 0, 64 * KIB)
        assert result.data == source.read("lake/file-0", 0, 64 * KIB).data
        assert client.failovers == 1
        assert client.metrics.counter("failovers").value == 1
        assert client.metrics.counter("degraded_serves").value == 1
        assert not client.worker(primary_name).online
        assert client.remote_fallbacks == 0

    def test_crash_mid_read_remote_fallback_when_single_worker(self):
        """With no replica to fail over to, the read falls back to remote
        storage and is accounted as degraded -- never an error."""
        __, source, workers, client = make_tier(n_workers=1)
        workers[0].schedule_crash_after(1)
        result = client.read("lake/file-2", 0, 64 * KIB)
        assert result.data == source.read("lake/file-2", 0, 64 * KIB).data
        assert client.failovers == 1
        assert client.remote_fallbacks == 1
        assert client.metrics.counter("remote_fallbacks").value == 1

    def test_crash_countdown_hits_nth_request(self):
        __, __, workers, client = make_tier(n_workers=1)
        workers[0].schedule_crash_after(3)
        client.read("lake/file-3", 0, KIB)
        client.read("lake/file-3", 0, KIB)
        assert workers[0].online
        client.read("lake/file-3", 0, KIB)  # third read kills it mid-serve
        assert not workers[0].online
        assert client.failovers == 1
