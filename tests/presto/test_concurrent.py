"""Tests for concurrent query execution on the event kernel: cross-query
queueing, busy fallback and the serial (one-query-at-a-time) protocol."""

import pytest

from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
from repro.storage.remote import NullDataSource

MIB = 1024 * 1024


def make_cluster(n_workers=4, max_splits_per_node=10_000):
    catalog = Catalog()
    table = build_table("s", "t", n_partitions=4, files_per_partition=2,
                        file_size=2 * MIB, n_columns=8, n_row_groups=4)
    catalog.add_table(table)
    source = NullDataSource()
    for __, data_file in table.all_files():
        source.add_file(data_file.file_id, data_file.size)
    return PrestoCluster.create(
        catalog, source, n_workers=n_workers,
        cache_capacity_bytes=64 * MIB, page_size=256 * 1024,
        target_split_size=1 * MIB,
        max_splits_per_node=max_splits_per_node,
    )


def query(query_id="q", fraction=1.0, compute=0.1):
    return QueryProfile(
        query_id=query_id,
        scans=(
            TableScan(table="s.t", partition_fraction=fraction,
                      profile=ScanProfile(columns_read=4,
                                          row_group_selectivity=1.0)),
        ),
        compute_seconds=compute,
    )


class TestConcurrentExecution:
    def test_results_per_query(self):
        cluster = make_cluster()
        arrivals = [(0.0, query("q1")), (0.1, query("q2")), (0.2, query("q3"))]
        results = cluster.coordinator.run_concurrent_kernel(arrivals)
        assert [r.query_id for r in results] == ["q1", "q2", "q3"]
        assert all(r.wall_seconds > 0 for r in results)
        assert cluster.coordinator.aggregator.query_count == 3

    def test_contention_raises_latency(self):
        """Back-to-back arrivals queue behind each other; widely spaced
        arrivals do not."""
        burst_cluster = make_cluster()
        burst = burst_cluster.coordinator.run_concurrent_kernel(
            [(0.0, query(f"q{i}")) for i in range(6)]
        )
        spaced_cluster = make_cluster()
        spaced = spaced_cluster.coordinator.run_concurrent_kernel(
            [(i * 100.0, query(f"q{i}")) for i in range(6)]
        )
        # first queries match; later burst queries wait behind earlier ones
        assert burst[-1].wall_seconds > spaced[-1].wall_seconds

    def test_arrival_order_normalized(self):
        cluster = make_cluster()
        results = cluster.coordinator.run_concurrent_kernel(
            [(5.0, query("late")), (0.0, query("early"))]
        )
        assert [r.query_id for r in results] == ["early", "late"]

    def test_busy_fallback_engages_under_pressure(self):
        """With a tight per-node split budget and a burst, the scheduler's
        fallback ladder must fire (Section 6.1.2's whole point)."""
        cluster = make_cluster(max_splits_per_node=2)
        results = cluster.coordinator.run_concurrent_kernel(
            [(0.0, query(f"q{i}")) for i in range(8)]
        )
        bypassed = sum(r.stats.cache_bypassed_splits for r in results)
        assert bypassed > 0

    def test_idle_cluster_matches_serial_walls(self):
        """On an idle cluster with one executor per worker (run_query's
        protocol) each worker serves its splits back to back, so the wall
        is the busiest worker's time plus compute; four executors per
        worker overlap those splits and finish sooner."""
        serial_cluster = make_cluster()
        serial = serial_cluster.coordinator.run_query(query("q1"))
        busiest = max(w.busy_seconds for w in serial_cluster.workers.values())
        assert serial.wall_seconds == pytest.approx(busiest + 0.1)
        wide = make_cluster().coordinator.run_concurrent_kernel(
            [(0.0, query("q1"))], worker_concurrency=4
        )[0]
        assert wide.stats.splits == serial.stats.splits
        assert wide.wall_seconds < serial.wall_seconds

    def test_warm_concurrent_burst_is_faster(self):
        cluster = make_cluster()
        cold = cluster.coordinator.run_concurrent_kernel(
            [(0.0, query(f"c{i}")) for i in range(4)]
        )
        warm = cluster.coordinator.run_concurrent_kernel(
            [(1000.0, query(f"w{i}")) for i in range(4)]
        )
        assert max(r.wall_seconds for r in warm) < max(
            r.wall_seconds for r in cold
        )
