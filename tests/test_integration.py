"""Cross-layer integration tests: the full stacks a deployment would run."""

from repro.core import CacheConfig, CacheDirectory, CacheScope, LocalCacheManager
from repro.core.admission import BucketTimeRateLimit
from repro.core.pagestore import LocalFilePageStore
from repro.hdfs_cache import CachedDataNode
from repro.ports.clock import SimClock
from repro.storage.hdfs import DataNode, DfsClient, NameNode
from repro.storage.object_store import ObjectStore
from repro.storage.remote import ObjectStoreDataSource

KIB = 1024
MIB = 1024 * KIB


class TestRangedReadsOverCacheOverObjectStore:
    """The Presto data path of Figure 7: ranged reads -> local cache -> S3."""

    PAGE = 32 * KIB

    def _setup(self, tmp_path):
        blob = bytes((i * 7 + i // 251) % 256 for i in range(10 * self.PAGE + 123))
        store = ObjectStore()
        store.put_object("wh/orders/part-0.rpq", blob)
        source = ObjectStoreDataSource(store)
        page_store = LocalFilePageStore([tmp_path], page_size=self.PAGE)
        cache = LocalCacheManager(
            CacheConfig(
                page_size=self.PAGE,
                directories=[CacheDirectory(str(tmp_path), 8 * MIB)],
            ),
            page_store=page_store,
        )
        return blob, store, source, cache

    def test_reads_through_real_page_files(self, tmp_path):
        blob, store, source, cache = self._setup(tmp_path)
        scope = CacheScope.for_partition("wh", "orders", "ds=0")
        # 20 KiB reads: most start mid-page and end in the next one
        ranges = [(offset, 20 * KIB) for offset in range(0, len(blob), 20 * KIB)]

        def scan():
            results = [
                cache.read("wh/orders/part-0.rpq", offset, length, source, scope=scope)
                for offset, length in ranges
            ]
            return b"".join(r.data for r in results), results

        cold, cold_results = scan()
        assert cold == blob
        assert sum(r.page_misses for r in cold_results) == 11  # each page once

        requests_before = store.request_count
        warm, warm_results = scan()
        assert warm == blob
        assert all(r.fully_cached for r in warm_results)
        assert store.request_count == requests_before  # zero remote I/O warm
        # pages landed as real files in the Figure-4 layout
        page_files = list(tmp_path.glob("page_size=32768/bucket=*/file=*/*"))
        assert len(page_files) >= 11
        # and the partition scope can drop them in one call
        assert cache.delete_scope(scope) == 11
        assert cache.page_count == 0
        assert not any(path.exists() for path in page_files)


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

