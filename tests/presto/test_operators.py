"""Tests for ScanFilterProjectOperator."""

import pytest

from repro.core import CacheConfig, LocalCacheManager
from repro.presto.metadata_cache import MetadataCache
from repro.presto.operators import (
    METADATA_PARSE_COST,
    ScanFilterProjectOperator,
    ScanProfile,
)
from repro.presto.runtime_stats import QueryRuntimeStats
from repro.presto.split import Split
from repro.storage.remote import NullDataSource

KIB = 1024


def make_split(size=64 * KIB, n_columns=8, n_row_groups=4):
    return Split(
        file_id="s/t/p/part-0", offset=0, length=size,
        schema="s", table="t", partition="p",
        n_columns=n_columns, n_row_groups=n_row_groups,
    )


def make_operator(cache=True, metadata=True, source=None):
    source = source or NullDataSource(base_latency=0.01, bandwidth=1e9)
    source.add_file("s/t/p/part-0", 64 * KIB)
    cache_manager = (
        LocalCacheManager(CacheConfig.small(1 << 20, page_size=4 * KIB))
        if cache
        else None
    )
    metadata_cache = MetadataCache() if metadata else None
    return ScanFilterProjectOperator(cache_manager, metadata_cache, source), source


class TestScanProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScanProfile(columns_read=0, row_group_selectivity=1.0)
        with pytest.raises(ValueError):
            ScanProfile(columns_read=1, row_group_selectivity=0.0)
        with pytest.raises(ValueError):
            ScanProfile(columns_read=1, row_group_selectivity=1.5)


class TestExecution:
    def test_request_count_matches_chunks(self):
        operator, __ = make_operator()
        result = operator.execute(
            make_split(n_columns=8, n_row_groups=4),
            ScanProfile(columns_read=2, row_group_selectivity=1.0),
        )
        assert result.requests == 4 * 2  # groups * projected columns
        assert result.bytes_scanned > 0
        assert result.input_wall > 0

    def test_selectivity_prunes_row_groups(self):
        operator, __ = make_operator()
        full = operator.execute(
            make_split(n_row_groups=8),
            ScanProfile(columns_read=2, row_group_selectivity=1.0),
        )
        half = operator.execute(
            make_split(n_row_groups=8),
            ScanProfile(columns_read=2, row_group_selectivity=0.5),
        )
        assert half.requests == full.requests // 2

    def test_warm_cache_cuts_input_wall(self):
        operator, __ = make_operator()
        profile = ScanProfile(columns_read=4, row_group_selectivity=1.0)
        cold = operator.execute(make_split(), profile)
        warm = operator.execute(make_split(), profile)
        assert warm.input_wall < cold.input_wall

    def test_bypass_cache_goes_remote(self):
        operator, source = make_operator()
        profile = ScanProfile(columns_read=4, row_group_selectivity=1.0)
        stats = QueryRuntimeStats("q")
        operator.execute(make_split(), profile, stats, bypass_cache=True)
        assert stats.bytes_from_remote > 0
        assert stats.bytes_from_cache == 0
        # bypass leaves nothing cached: second bypass still all-remote
        operator.execute(make_split(), profile, stats, bypass_cache=True)
        assert stats.bytes_from_cache == 0

    def test_no_cache_operator(self):
        operator, __ = make_operator(cache=False)
        profile = ScanProfile(columns_read=2, row_group_selectivity=1.0)
        stats = QueryRuntimeStats("q")
        operator.execute(make_split(), profile, stats)
        assert stats.bytes_from_remote > 0

    def test_metadata_cache_skips_parse_cost(self):
        operator, __ = make_operator(metadata=True)
        profile = ScanProfile(columns_read=1, row_group_selectivity=1.0)
        stats = QueryRuntimeStats("q")
        first = operator.execute(make_split(), profile, stats)
        second = operator.execute(make_split(), profile, stats)
        assert stats.metadata_parses == 1
        assert stats.metadata_cache_hits == 1
        assert second.cpu_time == pytest.approx(first.cpu_time - METADATA_PARSE_COST)

    def test_no_metadata_cache_always_parses(self):
        operator, __ = make_operator(metadata=False)
        profile = ScanProfile(columns_read=1, row_group_selectivity=1.0)
        stats = QueryRuntimeStats("q")
        operator.execute(make_split(), profile, stats)
        operator.execute(make_split(), profile, stats)
        assert stats.metadata_parses == 2

    def test_stats_merge(self):
        operator, __ = make_operator()
        profile = ScanProfile(columns_read=2, row_group_selectivity=1.0)
        stats = QueryRuntimeStats("q")
        operator.execute(make_split(), profile, stats)
        assert stats.input_wall > 0
        assert stats.compute_wall > 0
        assert stats.bytes_from_cache + stats.bytes_from_remote > 0

    def test_tiny_split_single_range(self):
        operator, source = make_operator()
        source.add_file("tiny", 4)
        split = Split(file_id="tiny", offset=0, length=4,
                      schema="s", table="t", partition="p",
                      n_columns=8, n_row_groups=8)
        result = operator.execute(
            split, ScanProfile(columns_read=1, row_group_selectivity=1.0)
        )
        assert result.requests == 1
