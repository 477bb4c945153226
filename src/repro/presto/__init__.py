"""A Presto simulator: the compute substrate of the Section 6.1 case study.

Coordinator-worker architecture with the pieces the paper describes:

- :mod:`~repro.presto.catalog` -- schema/table/partition/file layout.
- :mod:`~repro.presto.split` -- splits, the unit of scheduling.
- :mod:`~repro.presto.hashring` -- consistent hashing with node-timeout
  "lazy data movement" (Section 7) and bounded replica fan-out.
- :mod:`~repro.presto.scheduler` -- soft-affinity split scheduling with the
  busy-fallback ladder of Section 6.1.2 (Figure 8), plus the random
  baseline it replaced.
- :mod:`~repro.presto.worker` -- workers embedding the local cache and the
  metadata cache; execute splits through ScanFilterProjectOperator.
- :mod:`~repro.presto.operators` -- the scan operator whose ``inputWall``
  metric Figure 10 reports.
- :mod:`~repro.presto.metadata_cache` -- file/stripe/column metadata
  caching (Section 6.1.1; the 30 %-CPU lesson of Section 7).
- :mod:`~repro.presto.runtime_stats` -- per-query RuntimeStats aggregated
  to table-level insights (Section 6.1.3).
- :mod:`~repro.presto.coordinator` -- plans queries into splits, drives
  scheduling and execution, reports per-query results.
"""

from repro.presto.catalog import Catalog, DataFile, Partition, TableDef
from repro.presto.coordinator import Coordinator, PrestoCluster, QueryResult
from repro.presto.hashring import ConsistentHashRing
from repro.presto.metadata_cache import MetadataCache
from repro.presto.operators import ScanFilterProjectOperator, ScanProfile
from repro.presto.query import QueryProfile, TableScan
from repro.presto.runtime_stats import QueryRuntimeStats, RuntimeStatsAggregator
from repro.presto.scheduler import (
    RandomScheduler,
    SchedulerDecision,
    SoftAffinityScheduler,
)
from repro.presto.split import Split
from repro.presto.worker import Worker

__all__ = [
    "Catalog",
    "TableDef",
    "Partition",
    "DataFile",
    "Split",
    "ConsistentHashRing",
    "SoftAffinityScheduler",
    "RandomScheduler",
    "SchedulerDecision",
    "Worker",
    "MetadataCache",
    "ScanProfile",
    "ScanFilterProjectOperator",
    "QueryProfile",
    "TableScan",
    "QueryRuntimeStats",
    "RuntimeStatsAggregator",
    "Coordinator",
    "PrestoCluster",
    "QueryResult",
]
