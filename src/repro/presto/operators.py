"""Scan-side operators: where `inputWall` is measured.

Figure 10's metric is "the *inputWall* metric of the ScanFilterProject-
Operator, a key internal phase within a Presto query, responsible for data
input handling and initial filtering".  The operator here models a split
scan over a columnar file: footer metadata (through the metadata cache),
row-group pruning by selectivity, then one ranged read per surviving
(row group, projected column) chunk -- each read going through the worker's
local cache (or straight to remote when the scheduler flagged the split as
a cache bypass).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache_manager import LocalCacheManager
from repro.obs.tracer import current_tracer
from repro.presto.metadata_cache import MetadataCache
from repro.presto.split import Split
from repro.presto.runtime_stats import QueryRuntimeStats
from repro.storage.remote import DataSource

# Virtual CPU cost of deserializing one file's footer metadata without the
# metadata cache (the up-to-30%-of-CPU lesson, Section 7).
METADATA_PARSE_COST = 0.008
# Virtual CPU cost of filtering/projecting one MB of scanned data.
FILTER_PROJECT_COST_PER_MB = 0.0015
# Input handling charged per ranged read regardless of where the bytes came
# from: codec setup, buffer allocation, and decode.  ``inputWall`` covers
# "data input handling and initial filtering", so this floor is what keeps
# warm-cache inputWall reductions at the paper's ~2/3 rather than ~100 %.
INPUT_HANDLING_FIXED = 0.0012
INPUT_HANDLING_PER_MB = 0.025


@dataclass(frozen=True, slots=True)
class ScanProfile:
    """How a query scans a split.

    Attributes:
        columns_read: projected column count (<= split's column count).
        row_group_selectivity: fraction of row groups surviving predicate
            pushdown (min/max pruning).
    """

    columns_read: int
    row_group_selectivity: float

    def __post_init__(self) -> None:
        if self.columns_read <= 0:
            raise ValueError(f"columns_read must be positive, got {self.columns_read}")
        if not 0 < self.row_group_selectivity <= 1:
            raise ValueError(
                f"row_group_selectivity must be in (0, 1], got "
                f"{self.row_group_selectivity}"
            )


@dataclass(slots=True)
class OperatorResult:
    """What one split scan produced."""

    input_wall: float = 0.0
    cpu_time: float = 0.0
    bytes_scanned: int = 0
    requests: int = 0


class ScanFilterProjectOperator:
    """Executes one split scan through the local cache."""

    def __init__(
        self,
        cache: LocalCacheManager | None,
        metadata_cache: MetadataCache | None,
        source: DataSource,
    ) -> None:
        self._cache = cache
        self._metadata_cache = metadata_cache
        self._source = source

    def execute(
        self,
        split: Split,
        profile: ScanProfile,
        stats: QueryRuntimeStats | None = None,
        *,
        bypass_cache: bool = False,
    ) -> OperatorResult:
        """Scan the split; returns timing and byte accounting.

        ``bypass_cache`` is the scheduler's fallback signal: "fetch data
        directly from external storage, bypassing local caching"
        (Section 6.1.2).
        """
        result = OperatorResult()
        self._charge_metadata(split, result, stats)
        columns = min(profile.columns_read, split.n_columns)
        for offset, length in self._chunk_ranges(split, profile, columns):
            self._read_range(split, offset, length, result, stats, bypass_cache)
        filter_project = (
            result.bytes_scanned / (1024 * 1024)
        ) * FILTER_PROJECT_COST_PER_MB
        result.cpu_time += filter_project
        current_tracer().current().charge("compute", filter_project)
        if stats is not None:
            stats.input_wall += result.input_wall
            stats.compute_wall += result.cpu_time
        return result

    # -- pieces ------------------------------------------------------------

    def _charge_metadata(
        self, split: Split, result: OperatorResult, stats: QueryRuntimeStats | None
    ) -> None:
        """Footer metadata: cached deserialized objects skip the parse cost."""
        key = split.file_id
        if self._metadata_cache is not None:
            if self._metadata_cache.get(key) is not None:
                if stats is not None:
                    stats.metadata_cache_hits += 1
                return
            self._metadata_cache.put(key, {"file_id": key, "parsed": True})
        result.cpu_time += METADATA_PARSE_COST
        current_tracer().current().charge("compute", METADATA_PARSE_COST)
        if stats is not None:
            stats.metadata_parses += 1

    def _chunk_ranges(
        self, split: Split, profile: ScanProfile, columns: int
    ) -> list[tuple[int, int]]:
        """Byte ranges of the column chunks this scan touches.

        The split's region is divided into its row groups, each row group
        into equal column chunks; predicate pushdown keeps a deterministic
        stride of row groups matching the selectivity.
        """
        n_groups = split.n_row_groups
        group_size = split.length // n_groups
        if group_size == 0:
            return [(split.offset, split.length)]
        chunk_size = max(group_size // split.n_columns, 1)
        keep_every = max(int(round(1.0 / profile.row_group_selectivity)), 1)
        ranges = []
        for group in range(n_groups):
            if group % keep_every != 0:
                continue  # pruned by min/max statistics
            group_start = split.offset + group * group_size
            for column in range(columns):
                ranges.append((group_start + column * chunk_size, chunk_size))
        return ranges

    def _read_range(
        self,
        split: Split,
        offset: int,
        length: int,
        result: OperatorResult,
        stats: QueryRuntimeStats | None,
        bypass_cache: bool,
    ) -> None:
        tracer = current_tracer()
        # with tracing off no charge is made
        span = tracer.current() if tracer.enabled else None
        if self._cache is None or bypass_cache:
            read = self._source.read(split.file_id, offset, length)
            handled = len(read.data)
            handling = self._handling_cost(handled)
            if span is not None:
                backoff = getattr(self._source, "last_retry_backoff", 0.0)
                wait = getattr(self._source, "last_queue_wait", 0.0)
                span.charge("retry_backoff", backoff)
                span.charge("queueing", wait)
                span.charge("remote", read.latency - backoff - wait)
                span.charge("compute", handling)
            result.input_wall += read.latency + handling
            result.bytes_scanned += handled
            result.requests += 1
            if stats is not None:
                stats.bytes_from_remote += handled
            return
        read = self._cache.read(
            split.file_id, offset, length, self._source, scope=split.scope
        )
        handled = len(read.data)
        handling = self._handling_cost(handled)
        if span is not None:
            span.charge("compute", handling)
        result.input_wall += read.latency + handling
        result.bytes_scanned += handled
        result.requests += 1
        if stats is not None:
            stats.merge_read(read)

    @staticmethod
    def _handling_cost(nbytes: int) -> float:
        return INPUT_HANDLING_FIXED + (nbytes / (1024 * 1024)) * INPUT_HANDLING_PER_MB
