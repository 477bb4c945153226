"""Cross-layer integration tests: the full stacks a deployment would run."""

import pytest

from repro.core import CacheConfig, CacheScope, LocalCacheManager
from repro.core.admission import BucketTimeRateLimit
from repro.core.pagestore import LocalFilePageStore
from repro.distributed import CacheWorker, DistributedCacheClient
from repro.format import (
    ColumnarReader,
    Predicate,
    ScanStatistics,
    Schema,
    cache_range_reader,
    write_table,
)
from repro.fuse import CachedFileSystem
from repro.hdfs_cache import CachedDataNode
from repro.ports.clock import SimClock
from repro.storage.hdfs import DataNode, DfsClient, NameNode
from repro.storage.object_store import ObjectStore
from repro.storage.remote import ObjectStoreDataSource

KIB = 1024
MIB = 1024 * KIB


class TestColumnarOverCacheOverObjectStore:
    """The Presto data path of Figure 7: reader -> local cache -> S3."""

    def _setup(self, tmp_path):
        schema = Schema.of(user_id="int64", amount="float64", city="string")
        rows = [[i, i * 0.25, f"city{i % 7}"] for i in range(5_000)]
        blob = write_table(schema, rows, rows_per_group=500)
        store = ObjectStore()
        store.put_object("wh/orders/part-0.rpq", blob)
        source = ObjectStoreDataSource(store)
        page_store = LocalFilePageStore([tmp_path], page_size=32 * KIB)
        cache = LocalCacheManager(
            CacheConfig(
                page_size=32 * KIB,
                directories=[
                    __import__("repro.core.config", fromlist=["CacheDirectory"])
                    .CacheDirectory(str(tmp_path), 8 * MIB)
                ],
            ),
            page_store=page_store,
        )
        return blob, store, source, cache

    def test_pushdown_scan_through_real_page_files(self, tmp_path):
        blob, store, source, cache = self._setup(tmp_path)
        scope = CacheScope.for_partition("wh", "orders", "ds=0")

        def scan():
            stats = ScanStatistics()
            reader = ColumnarReader(
                cache_range_reader(
                    cache, source, "wh/orders/part-0.rpq", stats, scope=scope
                ),
                len(blob),
                stats=stats,
            )
            rows = reader.scan(
                ["user_id", "amount"], predicate=Predicate("user_id", ">=", 4_500)
            )
            return rows, stats

        cold_rows, cold_stats = scan()
        assert [r["user_id"] for r in cold_rows] == list(range(4_500, 5_000))
        assert cold_stats.row_groups_pruned == 9  # 9 of 10 groups excluded

        requests_before = store.request_count
        warm_rows, warm_stats = scan()
        assert warm_rows == cold_rows
        assert warm_stats.latency < cold_stats.latency
        assert store.request_count == requests_before  # zero remote I/O warm
        # pages landed as real files in the Figure-4 layout
        assert any(tmp_path.glob("page_size=32768/bucket=*/file=*/*"))
        # and the partition scope can drop them in one call
        assert cache.delete_scope(scope) > 0


class TestHdfsEndToEnd:
    """DFS client -> NameNode -> cached DataNode, across mutations."""

    def test_append_delete_restart_consistency(self):
        clock = SimClock()
        datanode = DataNode("dn", clock=clock)
        namenode = NameNode([datanode], block_size=8 * KIB)
        client = DfsClient(namenode)
        cached = CachedDataNode(
            datanode, clock=clock, cache_capacity_bytes=4 * MIB,
            page_size=2 * KIB,
            rate_limiter=BucketTimeRateLimit(threshold=1),
        )
        payload = bytes(i % 251 for i in range(20 * KIB))
        status = client.create("/tbl/part-0", payload)
        assert len(status.blocks) == 3

        # warm every block through the cache and verify bytes
        for index, identity in enumerate(status.blocks):
            length = datanode.block_length(identity)
            result = cached.read_block(identity, 0, length)
            start = index * 8 * KIB
            assert result.data == payload[start : start + length]

        # append bumps the last block's generation; cached reads follow
        client.append("/tbl/part-0", b"tail")
        new_last = namenode.get_file_status("/tbl/part-0").blocks[-1]
        result = cached.read_block(new_last)
        assert result.data.endswith(b"tail")

        # delete purges via the mapping
        client.delete("/tbl/part-0")
        assert cached.on_block_deleted(new_last.block_id)

        # restart wipes and the node still serves fresh traffic correctly
        cached.restart()
        status = client.create("/tbl/part-1", payload[: 8 * KIB])
        fresh = cached.read_block(status.blocks[0], 100, 200)
        assert fresh.data == payload[100:300]


class TestDistributedTierOverFuse:
    """ML training reads routed through the distributed cache tier."""

    def test_fuse_over_cache_worker_tier(self):
        clock = SimClock()
        store = ObjectStore()
        payload = bytes(i % 256 for i in range(256 * KIB))
        store.put_object("ds/shard-0", payload)
        source = ObjectStoreDataSource(store)
        workers = [
            CacheWorker(f"cw-{i}", source, cache_capacity_bytes=4 * MIB,
                        page_size=32 * KIB, clock=clock)
            for i in range(3)
        ]
        client = DistributedCacheClient(workers, source, clock=clock)

        class TierSource:
            """Adapts the distributed tier to the DataSource protocol."""

            def file_length(self, file_id):
                return source.file_length(file_id)

            def read(self, file_id, offset, length):
                result = client.read(file_id, offset, length)
                from repro.storage.remote import ReadResult

                return ReadResult(data=result.data, latency=result.latency)

        # an edge cache in the compute process, backed by the cache tier
        edge = LocalCacheManager(CacheConfig.small(1 * MIB, page_size=32 * KIB))
        fs = CachedFileSystem(edge, TierSource())
        data = fs.read_file("ds/shard-0")
        assert data == payload
        again = fs.read_file("ds/shard-0")
        assert again == payload
        # the tier served the first pass; the edge cache the second
        assert client.reads > 0
        assert edge.metrics.hit_ratio >= 0.5  # second pass fully edge-local
