"""Edge cases of the cache manager's read/write surface."""

import pytest

from repro.core import (
    CacheConfig,
    CacheDirectory,
    CacheScope,
    LocalCacheManager,
    PageId,
)
from repro.storage.remote import SyntheticDataSource

KIB = 1024
PAGE = 4 * KIB


def make():
    source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
    source.add_file("f", 10 * PAGE)
    source.add_file("empty", 0)
    cache = LocalCacheManager(CacheConfig.small(64 * PAGE, page_size=PAGE))
    return cache, source


class TestReadEdges:
    def test_zero_length_read(self):
        cache, source = make()
        result = cache.read("f", 0, 0, source)
        assert result.data == b""
        assert result.page_hits == 0 and result.page_misses == 0

    def test_read_empty_file(self):
        cache, source = make()
        result = cache.read("empty", 0, 100, source)
        assert result.data == b""
        assert cache.page_count == 0

    def test_read_exactly_at_eof(self):
        cache, source = make()
        assert cache.read("f", 10 * PAGE, 1, source).data == b""

    def test_read_last_byte(self):
        cache, source = make()
        expected = source.read("f", 10 * PAGE - 1, 1).data
        assert cache.read("f", 10 * PAGE - 1, 1, source).data == expected

    def test_single_byte_reads_across_boundary(self):
        cache, source = make()
        for offset in (PAGE - 1, PAGE, PAGE + 1):
            expected = source.read("f", offset, 1).data
            assert cache.read("f", offset, 1, source).data == expected

    def test_whole_file_read(self):
        cache, source = make()
        expected = source.read("f", 0, 10 * PAGE).data
        assert cache.read("f", 0, 10 * PAGE, source).data == expected
        assert cache.page_count == 10


class TestMultiDirectory:
    def test_pages_spread_and_delete_dir(self):
        config = CacheConfig(
            page_size=PAGE,
            directories=[CacheDirectory("/a", 32 * PAGE),
                         CacheDirectory("/b", 32 * PAGE)],
        )
        cache = LocalCacheManager(config)
        source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        for n in range(16):
            source.add_file(f"file-{n}", PAGE)
            cache.read(f"file-{n}", 0, PAGE, source)
        used = [cache.metastore.bytes_in_dir(0), cache.metastore.bytes_in_dir(1)]
        assert sum(used) == 16 * PAGE
        assert all(u > 0 for u in used)  # affinity hashing spreads files
        removed = cache.delete_dir(0)
        assert removed == used[0] // PAGE
        assert cache.metastore.bytes_in_dir(0) == 0
        assert cache.metastore.bytes_in_dir(1) == used[1]

    def test_per_directory_eviction_isolated(self):
        """Pressure in one directory must not evict the other's pages."""
        config = CacheConfig(
            page_size=PAGE,
            directories=[CacheDirectory("/a", 2 * PAGE),
                         CacheDirectory("/b", 64 * PAGE)],
        )
        cache = LocalCacheManager(config)
        source = SyntheticDataSource(base_latency=0.0, bandwidth=1e12)
        # find files hashing to each directory
        from repro.core.allocator import AffinityAllocator

        allocator = AffinityAllocator(config, cache.metastore)
        dir0_files = []
        dir1_files = []
        n = 0
        while len(dir0_files) < 4 or len(dir1_files) < 2:
            file_id = f"file-{n}"
            target = allocator.allocate(file_id, PAGE)
            (dir0_files if target == 0 else dir1_files).append(file_id)
            n += 1
        for file_id in dir1_files[:2]:
            source.add_file(file_id, PAGE)
            cache.read(file_id, 0, PAGE, source)
        survivor_pages = cache.metastore.pages_in_dir(1)
        for file_id in dir0_files[:4]:  # overflows directory 0
            source.add_file(file_id, PAGE)
            cache.read(file_id, 0, PAGE, source)
        assert cache.metastore.pages_in_dir(1) == survivor_pages
        assert cache.metastore.bytes_in_dir(0) <= 2 * PAGE


class TestScopeAccounting:
    def test_rescoped_file_keeps_original_page_scope(self):
        """A page's scope is fixed at admission; later reads under another
        scope hit the same page without reclassifying it."""
        cache, source = make()
        scope_a = CacheScope.for_partition("s", "t", "a")
        scope_b = CacheScope.for_partition("s", "t", "b")
        cache.read("f", 0, PAGE, source, scope=scope_a)
        result = cache.read("f", 0, PAGE, source, scope=scope_b)
        assert result.page_hits == 1
        assert cache.scope_usage(scope_a) == PAGE
        assert cache.scope_usage(scope_b) == 0

    def test_duplicate_put_keeps_first_payload_accounting(self):
        cache, __ = make()
        assert cache.put_page(PageId("x", 0), b"a" * 100)
        assert cache.put_page(PageId("x", 0), b"b" * 200)  # already cached
        assert cache.bytes_used == 100
