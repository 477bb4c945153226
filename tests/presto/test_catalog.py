"""Tests for the catalog hierarchy."""

import pytest

from repro.presto.catalog import Catalog, DataFile, Partition, TableDef, build_table


class TestDataFile:
    def test_validation(self):
        with pytest.raises(ValueError):
            DataFile("f", size=0)
        with pytest.raises(ValueError):
            DataFile("f", size=10, n_columns=0)


class TestTableDef:
    def test_sizes_roll_up(self):
        table = build_table("s", "t", n_partitions=2, files_per_partition=3,
                            file_size=100)
        assert table.size == 600
        assert table.qualified_name == "s.t"
        assert len(table.all_files()) == 6
        partition = table.partitions["ds=0000"]
        assert partition.size == 300

    def test_scope_for_partition(self):
        table = build_table("s", "t", n_partitions=1, files_per_partition=1,
                            file_size=10)
        assert str(table.scope_for_partition("ds=0000")) == "global.s.t.ds=0000"

    def test_file_ids_unique(self):
        table = build_table("s", "t", n_partitions=2, files_per_partition=2,
                            file_size=10)
        ids = [f.file_id for __, f in table.all_files()]
        assert len(set(ids)) == 4


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = Catalog()
        table = build_table("s", "t", n_partitions=1, files_per_partition=1,
                            file_size=10)
        catalog.add_table(table)
        assert catalog.table("s.t") is table
        assert "s.t" in catalog
        assert catalog.total_size == 10
        assert catalog.tables() == [table]

    def test_duplicate_rejected(self):
        catalog = Catalog()
        table = build_table("s", "t", n_partitions=1, files_per_partition=1,
                            file_size=10)
        catalog.add_table(table)
        with pytest.raises(ValueError):
            catalog.add_table(table)

    def test_missing_table_raises(self):
        with pytest.raises(KeyError):
            Catalog().table("no.table")


class TestMetadataCache:
    def test_lru_bound(self):
        from repro.presto.metadata_cache import MetadataCache

        cache = MetadataCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_hit_ratio(self):
        from repro.presto.metadata_cache import MetadataCache

        cache = MetadataCache()
        assert cache.get("x") is None
        cache.put("x", 1)
        assert cache.get("x") == 1
        assert cache.hit_ratio == 0.5

    def test_invalidate(self):
        from repro.presto.metadata_cache import MetadataCache

        cache = MetadataCache()
        cache.put("k", 1)
        assert cache.invalidate("k")
        assert not cache.invalidate("k")

    def test_bad_capacity(self):
        from repro.presto.metadata_cache import MetadataCache

        with pytest.raises(ValueError):
            MetadataCache(capacity=0)
