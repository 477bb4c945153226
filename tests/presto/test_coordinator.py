"""Integration tests: coordinator + scheduler + workers + cache."""

import pytest

from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
from repro.storage.remote import NullDataSource, SyntheticDataSource

MIB = 1024 * 1024


def make_cluster(n_workers=4, synthetic=False, **kwargs):
    catalog = Catalog()
    table = build_table("s", "t", n_partitions=4, files_per_partition=2,
                        file_size=2 * MIB, n_columns=8, n_row_groups=4)
    catalog.add_table(table)
    source = SyntheticDataSource() if synthetic else NullDataSource()
    for __, data_file in table.all_files():
        source.add_file(data_file.file_id, data_file.size)
    cluster = PrestoCluster.create(
        catalog, source,
        n_workers=n_workers,
        cache_capacity_bytes=64 * MIB,
        page_size=256 * 1024,
        target_split_size=1 * MIB,
        **kwargs,
    )
    return cluster, catalog, source


def simple_query(query_id="q1", partition_fraction=0.5, compute=0.5):
    return QueryProfile(
        query_id=query_id,
        scans=(
            TableScan(
                table="s.t",
                partition_fraction=partition_fraction,
                profile=ScanProfile(columns_read=4, row_group_selectivity=1.0),
            ),
        ),
        compute_seconds=compute,
    )


class TestPlanning:
    def test_plan_covers_partition_fraction(self):
        cluster, catalog, __ = make_cluster()
        planned = cluster.coordinator.plan(simple_query(partition_fraction=0.5))
        # 2 of 4 partitions * 2 files * 2 splits per 2 MiB file
        assert len(planned) == 2 * 2 * 2

    def test_plan_minimum_one_partition(self):
        cluster, __, __ = make_cluster()
        planned = cluster.coordinator.plan(simple_query(partition_fraction=0.01))
        assert len(planned) == 1 * 2 * 2


class TestExecution:
    def test_warm_run_is_faster(self):
        cluster, __, __ = make_cluster()
        query = simple_query()
        cold = cluster.coordinator.run_query(query)
        warm = cluster.coordinator.run_query(query)
        assert warm.wall_seconds < cold.wall_seconds
        assert warm.stats.cache_hit_ratio > 0.9
        # the cold run still sees intra-page hits (read-through caches whole
        # pages, and several column chunks share a page) but must miss on
        # every first-touch page
        assert warm.stats.page_misses == 0
        assert cold.stats.page_misses > 0
        assert cold.stats.cache_hit_ratio < warm.stats.cache_hit_ratio

    def test_stats_recorded_per_query(self):
        cluster, __, __ = make_cluster()
        cluster.coordinator.run_query(simple_query("q1"))
        cluster.coordinator.run_query(simple_query("q2"))
        aggregator = cluster.coordinator.aggregator
        assert len(aggregator.queries()) == 2
        assert aggregator.table_insight("s.t").queries == 2
        assert aggregator.queries()[0].splits == 8

    def test_affinity_keeps_files_on_one_worker(self):
        cluster, __, __ = make_cluster()
        result = cluster.coordinator.run_query(simple_query())
        assert result.stats.affinity_hits == result.stats.splits
        assert result.stats.cache_bypassed_splits == 0

    def test_data_correctness_through_cluster(self):
        """With a content-bearing source, cached reads return real bytes."""
        cluster, __, source = make_cluster(synthetic=True)
        query = simple_query()
        cluster.coordinator.run_query(query)
        result = cluster.coordinator.run_query(query)
        assert result.stats.bytes_from_cache + result.stats.bytes_from_remote > 0

    def test_compute_seconds_floor(self):
        cluster, __, __ = make_cluster()
        result = cluster.coordinator.run_query(simple_query(compute=5.0))
        assert result.wall_seconds >= 5.0

    def test_cache_disabled_cluster(self):
        cluster, __, __ = make_cluster(cache_enabled=False)
        query = simple_query()
        first = cluster.coordinator.run_query(query)
        second = cluster.coordinator.run_query(query)
        assert second.stats.bytes_from_cache == 0
        assert second.stats.bytes_from_remote > 0
        # no cache: no warm speedup beyond metadata caching
        assert second.wall_seconds >= 0.9 * first.wall_seconds

    def test_random_scheduler_cluster(self):
        cluster, __, __ = make_cluster(scheduler="random")
        result = cluster.coordinator.run_query(simple_query())
        assert result.stats.affinity_hits == 0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            make_cluster(scheduler="optimal")

    def test_no_workers_rejected(self):
        from repro.presto.coordinator import Coordinator

        with pytest.raises(ValueError):
            Coordinator(Catalog(), {}, None)


class TestQueryProfileValidation:
    def test_empty_scans_rejected(self):
        with pytest.raises(ValueError):
            QueryProfile(query_id="q", scans=(), compute_seconds=1.0)

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            simple_query(compute=-1.0)

    def test_partition_fraction_validated(self):
        with pytest.raises(ValueError):
            TableScan(table="s.t", partition_fraction=0.0,
                      profile=ScanProfile(columns_read=1, row_group_selectivity=1.0))

    def test_resolve_partitions_prefix(self):
        cluster, catalog, __ = make_cluster()
        scan = TableScan(table="s.t", partition_fraction=0.5,
                         profile=ScanProfile(columns_read=1, row_group_selectivity=1.0))
        resolved = scan.resolve_partitions(catalog.table("s.t"))
        assert resolved == ["ds=0000", "ds=0001"]


class TestSplitFailover:
    def test_offline_worker_splits_reassigned(self):
        """A worker crashing mid-query drops its queued splits onto the
        survivors; the query completes with failovers counted, not an
        error."""
        cluster, __, __ = make_cluster(n_workers=4)
        coordinator = cluster.coordinator
        victim = cluster.workers["worker-0"]  # soft affinity gives it 6 of 8
        # crash while its first split is in flight: that one finishes, the
        # five still queued behind it fail over
        cluster.kernel.call_after(0.05, victim.fail)
        result = coordinator.run_query(simple_query())
        assert victim.splits_executed == 1
        assert coordinator.split_failovers == 5
        assert coordinator.metrics.counter("failovers").value == 5
        executed = sum(w.splits_executed for w in cluster.workers.values())
        assert executed == result.stats.splits == 8

    def test_failover_counted_when_worker_dies_between_queries(self):
        cluster, __, __ = make_cluster(n_workers=4)
        coordinator = cluster.coordinator
        coordinator.run_query(simple_query("q-warm"))
        cluster.workers["worker-0"].fail()
        result = coordinator.run_query(simple_query("q-degraded"))
        assert result.stats.splits > 0
        # worker-0 was still in the query's load view, so at least one split
        # had to fail over when its assignment landed there
        if coordinator.split_failovers:
            assert coordinator.metrics.counter("failovers").value == (
                coordinator.split_failovers
            )

    def test_all_workers_down_raises_scheduler_error(self):
        from repro.errors import SchedulerError

        cluster, __, __ = make_cluster(n_workers=2)
        for worker in cluster.workers.values():
            worker.fail()
        with pytest.raises(SchedulerError):
            cluster.coordinator.run_query(simple_query())

    def test_failed_run_leaves_kernel_clean(self):
        """A run that raises cancels its supervisor, queries and executors,
        so the next run on the same kernel is unaffected."""
        from repro.errors import SchedulerError

        cluster, __, __ = make_cluster(n_workers=4)
        kernel = cluster.kernel
        for worker in cluster.workers.values():
            worker.fail()
        with pytest.raises(SchedulerError):
            cluster.coordinator.run_query(simple_query())
        assert kernel.processes_spawned == (
            kernel.processes_completed + kernel.processes_cancelled
        )
        assert len(kernel) == 0
        for worker in cluster.workers.values():
            worker.recover()
        again = cluster.coordinator.run_query(simple_query())
        fresh = make_cluster(n_workers=4)[0].coordinator.run_query(simple_query())
        assert again.wall_seconds == fresh.wall_seconds
        assert again.stats == fresh.stats

    def test_health_feeds_scheduler_skips(self):
        from repro.resilience import BreakerBoard, NodeHealthTracker
        from repro.ports.clock import SimClock

        clock = SimClock()
        health = NodeHealthTracker(
            clock=clock, breakers=BreakerBoard(clock=clock, min_volume=1)
        )
        cluster, __, __ = make_cluster(n_workers=4, clock=clock, health=health)
        health.record_failure("worker-2")  # breaker opens (min_volume=1)
        result = cluster.coordinator.run_query(simple_query())
        assert result.stats.splits > 0
        assert cluster.workers["worker-2"].splits_executed == 0

    def test_recovered_worker_serves_again(self):
        cluster, __, __ = make_cluster(n_workers=2)
        cluster.workers["worker-0"].fail()
        cluster.coordinator.run_query(simple_query("q1"))
        cluster.workers["worker-0"].recover()
        cluster.coordinator.run_query(simple_query("q2", partition_fraction=1.0))
        assert cluster.workers["worker-0"].splits_executed > 0
