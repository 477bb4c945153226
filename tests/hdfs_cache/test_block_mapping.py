"""Tests for the in-memory block -> cache mapping."""

import pytest

from repro.hdfs_cache import BlockMapping, MappingEntry


class TestMappingEntry:
    def test_page_count_ceil(self):
        assert MappingEntry("blk_1@gs1", 1000).page_count(256) == 4
        assert MappingEntry("blk_1@gs1", 1024).page_count(256) == 4
        assert MappingEntry("blk_1@gs1", 1).page_count(256) == 1

    def test_bad_page_size(self):
        with pytest.raises(ValueError):
            MappingEntry("blk_1@gs1", 100).page_count(0)


class TestBlockMapping:
    def test_record_lookup_remove(self):
        mapping = BlockMapping()
        mapping.record(1, "blk_1@gs1", 1000)
        assert 1 in mapping
        assert mapping.lookup(1) == MappingEntry("blk_1@gs1", 1000)
        assert mapping.remove(1) == MappingEntry("blk_1@gs1", 1000)
        assert mapping.remove(1) is None
        assert 1 not in mapping

    def test_record_overwrites(self):
        mapping = BlockMapping()
        mapping.record(1, "blk_1@gs1", 1000)
        mapping.record(1, "blk_1@gs2", 1100)  # post-append generation
        assert mapping.lookup(1).cache_id == "blk_1@gs2"
        assert len(mapping) == 1

    def test_clear_models_restart(self):
        mapping = BlockMapping()
        mapping.record(1, "a", 1)
        mapping.record(2, "b", 2)
        mapping.clear()
        assert len(mapping) == 0
        assert mapping.lookup(1) is None

    def test_cache_ids(self):
        mapping = BlockMapping()
        mapping.record(1, "a", 1)
        mapping.record(2, "b", 2)
        assert [mapping.lookup(b).cache_id for b in (1, 2)] == ["a", "b"]
