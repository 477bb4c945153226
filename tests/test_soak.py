"""A 'day in production' soak scenario across the whole stack.

Runs several virtual hours of mixed operations against a Presto cluster
and a cached DataNode -- daily partition churn, node flaps, appends,
deletes, restarts, and injected failures -- and asserts the stability
invariants the paper's three years of operation rest on: correct bytes
always, capacity and quota never exceeded, metadata and payload always in
agreement, and the system always recoverable.
"""

import numpy as np
import pytest

from repro.core import CacheConfig, CacheScope, LocalCacheManager, QuotaManager
from repro.core.admission import BucketTimeRateLimit
from repro.hdfs_cache import CachedDataNode
from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.storage.hdfs import DataNode, DfsClient, NameNode
from repro.storage.remote import NullDataSource, SyntheticDataSource

KIB = 1024
MIB = 1024 * KIB


class TestPrestoSoak:
    def test_three_virtual_days_of_queries(self):
        catalog = Catalog()
        for t in range(6):
            table = build_table("wh", f"t{t}", n_partitions=12,
                                files_per_partition=2, file_size=1 * MIB,
                                n_columns=8, n_row_groups=4)
            catalog.add_table(table)
        source = NullDataSource()
        for table in catalog.tables():
            for __, data_file in table.all_files():
                source.add_file(data_file.file_id, data_file.size)
        cluster = PrestoCluster.create(
            catalog, source, n_workers=4,
            cache_capacity_bytes=8 * MIB, page_size=256 * KIB,
            target_split_size=1 * MIB,
        )
        rng = RngStream(31, "soak/presto").rng
        for day in range(3):
            for n in range(40):
                table_n = int(rng.integers(0, 6))
                query = QueryProfile(
                    query_id=f"d{day}-q{n}",
                    scans=(
                        TableScan(
                            table=f"wh.t{table_n}",
                            partition_fraction=float(rng.uniform(0.1, 0.4)),
                            partition_offset=day,  # daily churn
                            profile=ScanProfile(
                                columns_read=int(rng.integers(2, 6)),
                                row_group_selectivity=float(rng.uniform(0.5, 1.0)),
                            ),
                        ),
                    ),
                    compute_seconds=float(rng.uniform(0.1, 1.0)),
                )
                result = cluster.coordinator.run_query(query)
                assert result.wall_seconds > 0
            # nightly: a worker flaps (leaves the ring and returns in time)
            flapping = f"worker-{day % 4}"
            cluster.ring.mark_offline(flapping, now=float(day))
            cluster.coordinator.run_query(QueryProfile(
                query_id=f"d{day}-during-flap",
                scans=(TableScan(table="wh.t0", partition_fraction=0.2,
                                 profile=ScanProfile(columns_read=2,
                                                     row_group_selectivity=1.0)),),
                compute_seconds=0.1,
            ))
            cluster.ring.mark_online(flapping)
        # invariants after the soak
        for worker in cluster.workers.values():
            assert worker.cache is not None
            assert worker.cache.bytes_used <= worker.cache.capacity_bytes
            assert worker.cache.bytes_used == worker.cache.page_store.bytes_used(0)
        assert cluster.coordinator.aggregator.query_count == 3 * 40 + 3
        assert cluster.coordinator.cluster_hit_ratio() > 0.3


class TestDataNodeSoak:
    def test_hours_of_traffic_with_mutations_and_restarts(self):
        clock = SimClock()
        datanode = DataNode("dn-soak", clock=clock)
        namenode = NameNode([datanode], block_size=16 * KIB)
        client = DfsClient(namenode)
        cached = CachedDataNode(
            datanode, clock=clock, cache_capacity_bytes=2 * MIB,
            page_size=4 * KIB,
            rate_limiter=BucketTimeRateLimit(threshold=2, window_buckets=10),
        )
        rng = RngStream(33, "soak/hdfs").rng
        files: dict[str, bytes] = {}
        for n in range(10):
            payload = bytes(rng.integers(0, 256, size=48 * KIB, dtype=np.uint8))
            path = f"/wh/t/part-{n}"
            client.create(path, payload)
            files[path] = payload

        for hour in range(4):
            for n in range(300):
                path = sorted(files)[int(rng.integers(0, len(files)))]
                status = namenode.get_file_status(path)
                block_index = int(rng.integers(0, len(status.blocks)))
                identity = status.blocks[block_index]
                length = datanode.block_length(identity)
                offset = int(rng.integers(0, max(length - 100, 1)))
                take = min(100, length - offset)
                result = cached.read_block(identity, offset, take)
                start = block_index * 16 * KIB + offset
                assert result.data == files[path][start : start + take]
                clock.advance(10.0)
            # hourly mutations
            victim = sorted(files)[hour % len(files)]
            if hour % 2 == 0:
                extra = b"APPEND" * 10
                client.append(victim, extra)
                files[victim] = files[victim] + extra
            else:
                old_status = namenode.get_file_status(victim)
                client.delete(victim)
                for identity in old_status.blocks:
                    cached.on_block_deleted(identity.block_id)
                payload = bytes(
                    rng.integers(0, 256, size=48 * KIB, dtype=np.uint8)
                )
                client.create(victim, payload)
                files[victim] = payload
            if hour == 2:
                cached.restart()  # mid-soak process restart
        # invariants
        assert cached.cache.bytes_used <= cached.cache.capacity_bytes
        assert cached.cache.bytes_used == cached.cache.page_store.bytes_used(0)
        assert cached.total_bytes > 0
        assert cached.cache_hit_bytes > 0


class TestQuotaSoak:
    def test_quota_holds_under_hours_of_mixed_tenants(self):
        clock = SimClock()
        quota = QuotaManager({
            "wh.t0": 512 * KIB,
            "wh.t0.p0": 384 * KIB,
            "wh.t0.p1": 384 * KIB,
        })
        cache = LocalCacheManager(
            CacheConfig.small(4 * MIB, page_size=16 * KIB),
            clock=clock, quota=quota,
        )
        source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        for n in range(30):
            source.add_file(f"f{n}", 256 * KIB)
        rng = RngStream(35, "soak/quota").rng
        scopes = [
            CacheScope.for_partition("wh", "t0", "p0"),
            CacheScope.for_partition("wh", "t0", "p1"),
            CacheScope.for_table("wh", "t1"),
        ]
        for i in range(2_000):
            scope = scopes[int(rng.integers(0, len(scopes)))]
            file_id = f"f{int(rng.integers(0, 30))}"
            offset = int(rng.integers(0, 200 * KIB))
            cache.read(file_id, offset, 8 * KIB, source, scope=scope)
            clock.advance(1.0)
            assert cache.scope_usage(CacheScope.for_table("wh", "t0")) <= 512 * KIB
            assert cache.bytes_used <= cache.capacity_bytes
