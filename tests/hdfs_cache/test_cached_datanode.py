"""Tests for the HDFS local cache (Section 6.2 semantics)."""

import pytest

from repro.core.admission import BucketTimeRateLimit
from repro.hdfs_cache import CachedDataNode
from repro.ports.clock import SimClock
from repro.storage.hdfs import DataNode, DfsClient, NameNode

BLOCK = 4096


def make_setup(threshold=2, capacity=1 << 22, page_size=512):
    clock = SimClock()
    datanode = DataNode("dn1", clock=clock)
    namenode = NameNode([datanode], block_size=BLOCK)
    client = DfsClient(namenode)
    cached = CachedDataNode(
        datanode,
        clock=clock,
        cache_capacity_bytes=capacity,
        page_size=page_size,
        rate_limiter=BucketTimeRateLimit(threshold=threshold, window_buckets=10),
    )
    return clock, client, cached


class TestAdmission:
    def test_cold_blocks_take_non_cache_path(self):
        __, client, cached = make_setup(threshold=3)
        status = client.create("/f", b"A" * BLOCK)
        first = cached.read_block(status.blocks[0], 0, 100)
        assert not first.from_cache
        assert first.data == b"A" * 100

    def test_hot_block_admitted_after_threshold(self):
        clock, client, cached = make_setup(threshold=3)
        status = client.create("/f", b"A" * BLOCK)
        results = []
        for __ in range(5):
            results.append(cached.read_block(status.blocks[0], 0, 100))
            clock.advance(1.0)
        assert [r.from_cache for r in results] == [False, False, True, True, True]
        assert all(r.data == b"A" * 100 for r in results)
        assert status.blocks[0].block_id in cached.mapping

    def test_window_expiry_resets_hotness(self):
        clock, client, cached = make_setup(threshold=3)
        status = client.create("/f", b"A" * BLOCK)
        cached.read_block(status.blocks[0], 0, 10)
        clock.advance(3600.0)  # far past the 10-minute window
        result = cached.read_block(status.blocks[0], 0, 10)
        assert not result.from_cache

    def test_disabled_cache_always_non_cache(self):
        clock, client, cached = make_setup(threshold=1)
        status = client.create("/f", b"A" * BLOCK)
        cached.set_enabled(False)
        for __ in range(3):
            assert not cached.read_block(status.blocks[0], 0, 10).from_cache
        cached.set_enabled(True)
        assert cached.read_block(status.blocks[0], 0, 10).from_cache


class TestDataPathCorrectness:
    def test_cached_bytes_match_hdd_bytes(self):
        clock, client, cached = make_setup(threshold=1)
        payload = bytes(i % 251 for i in range(BLOCK))
        status = client.create("/f", payload)
        result = cached.read_block(status.blocks[0], 100, 500)
        assert result.from_cache
        assert result.data == payload[100:500 + 100]
        # re-read a different range, still from cache
        again = cached.read_block(status.blocks[0], 3000, 1000)
        assert again.from_cache
        assert again.data == payload[3000:4000]

    def test_cache_read_is_faster_than_hdd(self):
        clock, client, cached = make_setup(threshold=2)
        status = client.create("/f", b"A" * BLOCK)
        cold = cached.read_block(status.blocks[0], 0, BLOCK)
        warm = cached.read_block(status.blocks[0], 0, BLOCK)
        assert warm.from_cache
        assert warm.latency < cold.latency


class TestAppendSnapshotIsolation:
    def test_append_creates_distinct_cache_entry(self):
        clock, client, cached = make_setup(threshold=1)
        status = client.create("/f", b"A" * 100)
        old_identity = status.blocks[0]
        cached.read_block(old_identity, 0, 100)  # admit generation 1
        assert cached.mapping.lookup(old_identity.block_id).cache_id == \
            old_identity.cache_key()
        new_identity = client.append("/f", b"B" * 50)
        # reading the new generation purges the stale entry, then re-admits
        result = cached.read_block(new_identity, 0, 150)
        assert result.data == b"A" * 100 + b"B" * 50
        entry = cached.mapping.lookup(new_identity.block_id)
        assert entry.cache_id == new_identity.cache_key()
        # the stale generation's pages are gone from the local cache
        assert cached.cache.metastore.pages_of_file(old_identity.cache_key()) == []


class TestDelete:
    def test_on_block_deleted_purges_cache(self):
        clock, client, cached = make_setup(threshold=1)
        status = client.create("/f", b"A" * BLOCK)
        identity = status.blocks[0]
        cached.read_block(identity, 0, BLOCK)
        assert cached.cache.page_count > 0
        client.delete("/f")
        assert cached.on_block_deleted(identity.block_id)
        assert not cached.on_block_deleted(identity.block_id)
        assert cached.cache.metastore.pages_of_file(identity.cache_key()) == []

    def test_mapping_page_count_math(self):
        clock, client, cached = make_setup(threshold=1, page_size=512)
        status = client.create("/f", b"A" * BLOCK)
        cached.read_block(status.blocks[0], 0, BLOCK)
        entry = cached.mapping.lookup(status.blocks[0].block_id)
        assert entry.page_count(512) == -(-entry.file_length // 512)


class TestRestart:
    def test_restart_wipes_cache_and_mapping(self):
        """The paper's compromise: mapping lost => clear and rebuild."""
        clock, client, cached = make_setup(threshold=1)
        status = client.create("/f", b"A" * BLOCK)
        cached.read_block(status.blocks[0], 0, BLOCK)
        assert cached.cache.page_count > 0
        cached.restart()
        assert len(cached.mapping) == 0
        assert cached.cache.page_count == 0
        assert cached.datanode.restart_count == 1
        # cache rebuilds from the ground up on subsequent traffic
        result = cached.read_block(status.blocks[0], 0, 100)
        assert result.data == b"A" * 100


class TestTrafficAccounting:
    def test_rate_series_split_by_origin(self):
        clock, client, cached = make_setup(threshold=2)
        status = client.create("/f", b"A" * BLOCK)
        cached.read_block(status.blocks[0], 0, 1000)  # non-cache (count=1)
        clock.advance_to(30.0)
        cached.read_block(status.blocks[0], 0, 1000)  # admit + cache read
        clock.advance_to(70.0)
        cached.read_block(status.blocks[0], 0, 1000)  # cache, minute 1
        cache_series, other_series = cached.traffic_rates(60.0)
        assert other_series == {0: 1000}
        assert cache_series == {0: 1000, 1: 1000}
        assert cached.total_bytes == 3000
        assert sum(cache_series.values()) == 2000
