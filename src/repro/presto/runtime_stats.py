"""Per-query RuntimeStats and table-level aggregation (Section 6.1.3).

"Whenever Presto I/O operations engage the local cache, relevant metrics,
such as cache hit rate and pages read, are recorded ... query-level runtime
statistics are logged as in-memory metrics, which are periodically gathered
for extensive monitoring."  The aggregator rolls per-query stats into
table-level insights -- the hot-partition identification the paper uses.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class QueryRuntimeStats:
    """Runtime statistics for one query."""

    query_id: str
    tables: list[str] = field(default_factory=list)
    partitions: list[str] = field(default_factory=list)
    input_wall: float = 0.0
    compute_wall: float = 0.0
    total_wall: float = 0.0
    page_hits: int = 0
    page_misses: int = 0
    bytes_from_cache: int = 0
    bytes_from_remote: int = 0
    metadata_parses: int = 0
    metadata_cache_hits: int = 0
    splits: int = 0
    affinity_hits: int = 0
    cache_bypassed_splits: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        total = self.page_hits + self.page_misses
        return self.page_hits / total if total else 0.0

    def merge_read(self, result) -> None:
        """Fold a :class:`~repro.core.cache_manager.CacheReadResult` in."""
        self.page_hits += result.page_hits
        self.page_misses += result.page_misses
        self.bytes_from_cache += result.bytes_from_cache
        self.bytes_from_remote += result.bytes_from_remote


@dataclass(slots=True)
class TableInsight:
    """Aggregated view of one table across many queries."""

    table: str
    queries: int = 0
    bytes_from_cache: int = 0
    bytes_from_remote: int = 0
    partition_access_counts: dict[str, int] = field(default_factory=dict)

    @property
    def cache_byte_ratio(self) -> float:
        total = self.bytes_from_cache + self.bytes_from_remote
        return self.bytes_from_cache / total if total else 0.0

    def hot_partitions(self, top: int = 5) -> list[tuple[str, int]]:
        """Most frequently accessed partitions, hottest first."""
        ranked = sorted(
            self.partition_access_counts.items(), key=lambda kv: -kv[1]
        )
        return ranked[:top]


class RuntimeStatsAggregator:
    """Rolls per-query stats into per-table insights."""

    def __init__(self) -> None:
        self._queries: list[QueryRuntimeStats] = []
        self._tables: dict[str, TableInsight] = defaultdict(
            lambda: TableInsight(table="")
        )

    def record(self, stats: QueryRuntimeStats) -> None:
        self._queries.append(stats)
        share = 1.0 / max(len(stats.tables), 1)
        for table in stats.tables:
            insight = self._tables[table]
            insight.table = table
            insight.queries += 1
            insight.bytes_from_cache += int(stats.bytes_from_cache * share)
            insight.bytes_from_remote += int(stats.bytes_from_remote * share)
        for partition in stats.partitions:
            for table in stats.tables:
                counts = self._tables[table].partition_access_counts
                counts[partition] = counts.get(partition, 0) + 1

    def queries(self) -> list[QueryRuntimeStats]:
        return list(self._queries)

    def table_insight(self, table: str) -> TableInsight:
        return self._tables[table]

    def tables(self) -> list[str]:
        return sorted(self._tables)
