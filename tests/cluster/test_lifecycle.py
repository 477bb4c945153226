"""Tests for the cluster lifecycle API against a live PrestoCluster."""

import pytest

from repro.cluster.churn import ChurnDriver, rolling_restart
from repro.cluster.lifecycle import ClusterLifecycle
from repro.cluster.membership import NodeState
from repro.cluster.rebalance import ShardRebalancer
from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
from repro.ports.clock import SimClock
from repro.storage.remote import NullDataSource
from repro.workload.arrivals import poisson_arrivals
from repro.ports.rng import RngStream

MIB = 1024 * 1024


def build_cluster(n_workers=4, *, offline_timeout=300.0):
    clock = SimClock()
    catalog = Catalog()
    table = build_table("s", "t", n_partitions=4, files_per_partition=2,
                        file_size=1 * MIB, n_columns=8, n_row_groups=4)
    catalog.add_table(table)
    source = NullDataSource()
    for __, data_file in table.all_files():
        source.add_file(data_file.file_id, data_file.size)
    cluster = PrestoCluster.create(
        catalog, source, n_workers=n_workers,
        cache_capacity_bytes=16 * MIB, page_size=256 * 1024,
        target_split_size=1 * MIB, clock=clock,
        offline_timeout=offline_timeout,
    )
    cluster.membership.track_keys(
        data_file.file_id for __, data_file in table.all_files()
    )
    return cluster, cluster.kernel, clock


class TestTransitions:
    def test_add_worker_joins_ring_and_fleet(self):
        cluster, kernel, __ = build_cluster()
        lifecycle = ClusterLifecycle(cluster, kernel=kernel)
        worker = lifecycle.add_worker("worker-9")
        assert cluster.workers["worker-9"] is worker
        assert "worker-9" in cluster.ring.nodes
        assert cluster.membership.state_of("worker-9") is NodeState.ONLINE

    def test_add_worker_rejects_duplicate(self):
        cluster, kernel, __ = build_cluster()
        lifecycle = ClusterLifecycle(cluster, kernel=kernel)
        with pytest.raises(ValueError):
            lifecycle.add_worker("worker-0")

    def test_crash_keeps_seat_and_optionally_wipes_cache(self):
        cluster, kernel, __ = build_cluster()
        lifecycle = ClusterLifecycle(cluster, kernel=kernel)
        worker = cluster.workers["worker-1"]
        worker.cache.prefetch_file(
            next(iter(cluster.membership._tracked)), worker.source,
        )
        lifecycle.crash("worker-1", lose_cache=True)
        assert not worker.online
        assert worker.cache.bytes_used == 0
        assert cluster.membership.state_of("worker-1") is NodeState.OFFLINE
        assert "worker-1" in cluster.ring.nodes  # lazy data movement

    def test_restart_within_timeout_restores_owner_map(self):
        cluster, kernel, __ = build_cluster()
        lifecycle = ClusterLifecycle(cluster, kernel=kernel)
        before = {
            key: cluster.ring.primary(key)
            for key in cluster.membership._tracked
        }
        lifecycle.crash("worker-2")
        lifecycle.restart("worker-2")
        after = {
            key: cluster.ring.primary(key)
            for key in cluster.membership._tracked
        }
        assert after == before
        assert cluster.workers["worker-2"].online

    def test_decommission_removes_everything(self):
        cluster, kernel, __ = build_cluster()
        lifecycle = ClusterLifecycle(cluster, kernel=kernel)
        lifecycle.decommission("worker-3")
        assert "worker-3" not in cluster.workers
        assert "worker-3" not in cluster.ring.nodes
        assert cluster.membership.state_of("worker-3") is NodeState.LEFT

    def test_expire_tick_retires_timed_out_nodes(self):
        cluster, kernel, clock = build_cluster(offline_timeout=300.0)
        lifecycle = ClusterLifecycle(cluster, kernel=kernel)
        lifecycle.crash("worker-0")
        clock.advance(299.0)
        assert lifecycle.expire_tick() == []
        clock.advance(1.0)
        assert lifecycle.expire_tick() == ["worker-0"]
        assert "worker-0" not in cluster.workers
        assert cluster.membership.state_of("worker-0") is NodeState.LEFT

    def test_cold_restart_triggers_warmup(self):
        cluster, kernel, __ = build_cluster()
        rebalancer = ShardRebalancer(strategy="prefetch")
        lifecycle = ClusterLifecycle(
            cluster, kernel=kernel, rebalancer=rebalancer,
        )
        lifecycle.crash("worker-1", lose_cache=True)
        lifecycle.restart("worker-1")
        kernel.run_all()
        assert rebalancer.metrics.counter("warmup_files").value > 0

    def test_requires_membership(self):
        cluster, kernel, __ = build_cluster()
        bare = PrestoCluster(
            coordinator=cluster.coordinator, workers=cluster.workers,
            ring=cluster.ring, membership=None,
        )
        with pytest.raises(ValueError):
            ClusterLifecycle(bare, kernel=kernel)


class TestKernelRunWithChurn:
    def test_queries_survive_mid_run_rolling_restart(self):
        """run_concurrent_kernel keeps serving while the churn driver
        crashes and restores workers under it."""
        cluster, kernel, __ = build_cluster(n_workers=4)
        lifecycle = ClusterLifecycle(cluster, kernel=kernel)
        schedule = rolling_restart(
            ["worker-0", "worker-1"], start=5.0, interval=10.0, downtime=4.0,
        )
        driver = ChurnDriver(lifecycle, schedule, expire_interval=60.0,
                             horizon=60.0)
        kernel.spawn(driver.proc(), name="churn-driver")
        times = poisson_arrivals(0.5, 40.0, RngStream(17, "arrivals"))
        scan = TableScan(
            table="s.t", partition_fraction=0.5,
            profile=ScanProfile(columns_read=4, row_group_selectivity=1.0),
        )
        arrivals = [
            (float(t), QueryProfile(query_id=f"q{i}", scans=(scan,),
                                    compute_seconds=0.05))
            for i, t in enumerate(times)
        ]
        results = cluster.coordinator.run_concurrent_kernel(
            arrivals, worker_concurrency=2,
        )
        assert len(results) == len(arrivals)
        assert all(r.wall_seconds > 0 for r in results)
        assert driver.applied == len(schedule)
        # both rolled nodes finished the run back online
        states = cluster.membership.states()
        assert states["worker-0"] == "online"
        assert states["worker-1"] == "online"
