"""Tests for shard rebalancing: prefetch and migrate warmup strategies."""

import pytest

from repro.cluster.rebalance import ShardRebalancer
from repro.presto.worker import Worker
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel
from repro.storage.remote import NullDataSource

KIB = 1024
FILE_SIZE = 256 * KIB
PAGE_SIZE = 64 * KIB


def build(n=2):
    clock = SimClock()
    kernel = Kernel(clock)
    source = NullDataSource(base_latency=0.01, bandwidth=200e6)
    for i in range(8):
        source.add_file(f"f{i}", FILE_SIZE)
    workers = {
        f"w{i}": Worker(
            f"w{i}", source,
            cache_capacity_bytes=4 * FILE_SIZE,
            page_size=PAGE_SIZE,
            clock=clock,
        )
        for i in range(n)
    }
    return kernel, source, workers


def resident_pages(worker, file_id):
    return len(worker.cache.metastore.pages_of_file(file_id))


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"strategy": "teleport"},
        {"migration_bandwidth": 0.0},
        {"max_keys_per_event": 0},
    ])
    def test_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ShardRebalancer(**kwargs)


class TestPrefetch:
    def test_new_owner_warms_from_remote(self):
        kernel, __, workers = build()
        rebalancer = ShardRebalancer(strategy="prefetch")
        spawned = rebalancer.rebalance(
            kernel, [("f0", "w0", "w1")], workers,
        )
        assert len(spawned) == 1
        kernel.run_all()
        assert resident_pages(workers["w1"], "f0") == FILE_SIZE // PAGE_SIZE
        assert rebalancer.metrics.counter("warmup_files").value == 1
        assert rebalancer.metrics.counter("warmup_bytes").value == FILE_SIZE
        # warming lives in virtual time: remote reads are not free
        assert kernel.clock.now() > 0.0

    def test_none_strategy_stays_lazy(self):
        kernel, __, workers = build()
        rebalancer = ShardRebalancer(strategy="none")
        assert rebalancer.rebalance(kernel, [("f0", "w0", "w1")], workers) == []
        assert resident_pages(workers["w1"], "f0") == 0

    def test_skips_offline_and_unknown_new_owners(self):
        kernel, __, workers = build()
        workers["w1"].fail()
        rebalancer = ShardRebalancer(strategy="prefetch")
        moved = [
            ("f0", "w0", "w1"),      # offline
            ("f1", "w0", "ghost"),   # never provisioned
            ("f2", "w0", None),      # no live owner at all
        ]
        assert rebalancer.rebalance(kernel, moved, workers) == []

    def test_fanout_cap_counts_skipped_keys(self):
        kernel, __, workers = build()
        rebalancer = ShardRebalancer(strategy="prefetch", max_keys_per_event=2)
        moved = [(f"f{i}", "w0", "w1") for i in range(5)]
        spawned = rebalancer.rebalance(kernel, moved, workers)
        assert len(spawned) == 2
        # no silent truncation: the cold keys are accounted
        assert rebalancer.metrics.counter("warmup_skipped_keys").value == 3


class TestMigrate:
    def test_resident_pages_copy_cache_to_cache(self):
        kernel, source, workers = build()
        workers["w0"].cache.prefetch_file("f0", source)
        assert resident_pages(workers["w0"], "f0") > 0
        rebalancer = ShardRebalancer(
            strategy="migrate", migration_bandwidth=1.25e9,
        )
        rebalancer.rebalance(kernel, [("f0", "w0", "w1")], workers)
        kernel.run_all()
        assert resident_pages(workers["w1"], "f0") == FILE_SIZE // PAGE_SIZE
        assert rebalancer.metrics.counter("migrated_pages").value == (
            FILE_SIZE // PAGE_SIZE
        )
        assert rebalancer.metrics.counter("migrated_bytes").value == FILE_SIZE
        # the wire charge alone puts the clock past bytes/bandwidth
        assert kernel.clock.now() >= FILE_SIZE / 1.25e9

    def test_falls_back_to_prefetch_when_old_owner_cold(self):
        kernel, __, workers = build()
        rebalancer = ShardRebalancer(strategy="migrate")
        rebalancer.rebalance(kernel, [("f0", "w0", "w1")], workers)
        kernel.run_all()
        assert resident_pages(workers["w1"], "f0") > 0
        assert rebalancer.metrics.counter("migrated_pages").value == 0
        assert rebalancer.metrics.counter("warmup_files").value == 1

    def test_falls_back_when_old_owner_departed(self):
        kernel, __, workers = build()
        rebalancer = ShardRebalancer(strategy="migrate")
        rebalancer.rebalance(kernel, [("f0", None, "w1")], workers)
        kernel.run_all()
        assert resident_pages(workers["w1"], "f0") > 0
        assert rebalancer.metrics.counter("warmup_files").value == 1
