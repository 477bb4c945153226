"""Tests for per-query runtime stats and table-level aggregation."""

from repro.presto.runtime_stats import QueryRuntimeStats, RuntimeStatsAggregator


def make_stats(query_id="q1", tables=("s.t",), input_wall=1.0, hits=8, misses=2,
               cache_bytes=800, remote_bytes=200, partitions=()):
    stats = QueryRuntimeStats(query_id=query_id)
    stats.tables = list(tables)
    stats.partitions = list(partitions)
    stats.input_wall = input_wall
    stats.total_wall = input_wall + 1.0
    stats.page_hits = hits
    stats.page_misses = misses
    stats.bytes_from_cache = cache_bytes
    stats.bytes_from_remote = remote_bytes
    return stats


class TestQueryRuntimeStats:
    def test_hit_ratio(self):
        assert make_stats(hits=8, misses=2).cache_hit_ratio == 0.8
        assert QueryRuntimeStats("q").cache_hit_ratio == 0.0

    def test_merge_read(self):
        from repro.core.cache_manager import CacheReadResult

        stats = QueryRuntimeStats("q")
        stats.merge_read(CacheReadResult(
            page_hits=2, page_misses=1,
            bytes_from_cache=100, bytes_from_remote=50,
        ))
        assert stats.page_hits == 2
        assert stats.bytes_from_remote == 50


class TestAggregator:
    def test_table_insights(self):
        aggregator = RuntimeStatsAggregator()
        aggregator.record(make_stats("q1", tables=("s.a",), input_wall=2.0))
        aggregator.record(make_stats("q2", tables=("s.a",), input_wall=4.0))
        aggregator.record(make_stats("q3", tables=("s.b",), input_wall=1.0))
        insight = aggregator.table_insight("s.a")
        assert insight.queries == 2
        assert aggregator.tables() == ["s.a", "s.b"]
        assert [s.query_id for s in aggregator.queries()] == ["q1", "q2", "q3"]

    def test_multi_table_query_splits_share(self):
        aggregator = RuntimeStatsAggregator()
        aggregator.record(make_stats("q1", tables=("s.a", "s.b"), input_wall=4.0,
                                     cache_bytes=1000, remote_bytes=500))
        insight = aggregator.table_insight("s.a")
        assert insight.bytes_from_cache == 500
        assert insight.bytes_from_remote == 250

    def test_hot_partition_identification(self):
        """The Section 6.1.3 use case: find hot partitions of a table."""
        aggregator = RuntimeStatsAggregator()
        for __ in range(5):
            aggregator.record(make_stats(tables=("s.a",),
                                         partitions=("s.a/ds=hot",)))
        aggregator.record(make_stats(tables=("s.a",),
                                     partitions=("s.a/ds=cold",)))
        hot = aggregator.table_insight("s.a").hot_partitions(top=1)
        assert hot == [("s.a/ds=hot", 5)]

    def test_byte_totals(self):
        aggregator = RuntimeStatsAggregator()
        aggregator.record(make_stats(cache_bytes=100, remote_bytes=10))
        aggregator.record(make_stats(cache_bytes=200, remote_bytes=20))
        insight = aggregator.table_insight("s.t")
        assert insight.bytes_from_cache == 300
        assert insight.bytes_from_remote == 30

    def test_cache_byte_ratio(self):
        aggregator = RuntimeStatsAggregator()
        aggregator.record(make_stats(cache_bytes=900, remote_bytes=100))
        assert aggregator.table_insight("s.t").cache_byte_ratio == 0.9
