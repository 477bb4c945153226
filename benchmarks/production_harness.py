"""A production-like Presto query stream (Uber/Meta case studies).

Unlike the TPC-DS batch (every query distinct, uniform coverage), the
production streams of Sections 6.1.4 are dominated by repeated dashboards
and ad-hoc queries against a handful of hot tables and recent partitions --
the temporal/spatial locality the local cache exploits.  The stream
generator draws, per query:

- a table from a Zipf-popularity law over the catalog,
- a recent-partition window (hot data is new data),
- a scan shape (columns, selectivity) from the table's typical usage,
- a compute tail sized to the target I/O share.

Cache capacity is deliberately smaller than the working set so steady-state
hit ratios are production-like rather than ~100 %.
"""

from __future__ import annotations

from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource
from repro.workload.zipf import ZipfSampler

MIB = 1024 * 1024


def build_production_catalog(
    *, n_tables: int = 12, partitions_per_table: int = 24,
    files_per_partition: int = 2, file_size: int = 2 * MIB,
) -> tuple[Catalog, NullDataSource]:
    """A warehouse of date-partitioned tables over a remote-HDFS-like
    source (Uber's Presto reads from on-premises HDFS, ~4 ms TTFB)."""
    catalog = Catalog()
    source = NullDataSource(base_latency=0.004, bandwidth=400e6)
    for index in range(n_tables):
        table = build_table(
            "warehouse",
            f"table_{index:02d}",
            n_partitions=partitions_per_table,
            files_per_partition=files_per_partition,
            file_size=file_size,
            n_columns=16,
            n_row_groups=8,
        )
        catalog.add_table(table)
        for __, data_file in table.all_files():
            source.add_file(data_file.file_id, data_file.size)
    return catalog, source


def production_stream(
    catalog: Catalog,
    *,
    n_queries: int = 240,
    seed: int = 11,
    table_zipf: float = 1.1,
    io_share_band: tuple[float, float] = (0.3, 0.7),
    io_wall_scale: float = 1.0,
    queries_per_day: int = 0,
    tail_io_bias: float = 0.0,
) -> list[QueryProfile]:
    """Draw a production-like query stream against ``catalog``.

    ``io_share_band`` sizes each query's compute tail relative to a rough
    estimate of its cold scan wall (refined empirically by callers that
    need an exact balance); ``io_wall_scale`` adjusts that estimate for the
    cluster's latency model.  ``queries_per_day`` > 0 advances the hot
    partition window every that-many queries, modelling new days of data
    arriving (compulsory misses that keep steady-state hit ratios
    production-like).  ``tail_io_bias`` in [0, 1] pulls big scans toward
    the top of the I/O-share band: production tail latency is dominated by
    I/O-bound scans (which is why the paper's P95 improves more than its
    P50), and this knob encodes that correlation.
    """
    tables = sorted(t.qualified_name for t in catalog.tables())
    rng_root = RngStream(seed, "production")
    table_sampler = ZipfSampler(len(tables), table_zipf, rng_root.child("tables"))
    queries: list[QueryProfile] = []
    for number in range(n_queries):
        rng = rng_root.child(f"q{number}").rng
        table_name = tables[int(table_sampler.sample(1)[0])]
        table = catalog.table(table_name)
        n_parts = len(table.partitions)
        # recent partitions are hot: window anchored at the newest day
        window = max(int(rng.integers(1, max(n_parts // 4, 2))), 1)
        fraction = window / n_parts
        day = number // queries_per_day if queries_per_day > 0 else 0
        columns = int(rng.integers(2, 8))
        selectivity = float(rng.uniform(0.3, 1.0))
        profile = ScanProfile(
            columns_read=columns, row_group_selectivity=selectivity
        )
        scan = TableScan(
            table=table_name, partition_fraction=fraction, profile=profile,
            partition_offset=day,
        )
        # rough cold-scan-wall estimate: requests x per-request latency
        files = window * len(next(iter(table.partitions.values())).files)
        kept_groups = max(int(8 * selectivity), 1)
        est_io = files * kept_groups * columns * 0.03 * io_wall_scale
        lo, hi = io_share_band
        draw = float(rng.uniform(0.0, 1.0))
        if tail_io_bias > 0:
            # larger scans skew toward the I/O-bound end of the band
            size_norm = min(window / max(n_parts // 4, 1), 1.0)
            draw = (1.0 - tail_io_bias) * draw + tail_io_bias * size_norm
        share = lo + (hi - lo) * draw
        compute = est_io * (1.0 / share - 1.0)
        queries.append(
            QueryProfile(
                query_id=f"prod-{number}", scans=(scan,),
                compute_seconds=compute,
            )
        )
    return queries


def make_production_cluster(
    catalog: Catalog,
    source: NullDataSource,
    *,
    cache_enabled: bool,
    cache_capacity_bytes: int,
    n_workers: int = 4,
) -> PrestoCluster:
    return PrestoCluster.create(
        catalog,
        source,
        n_workers=n_workers,
        cache_capacity_bytes=cache_capacity_bytes,
        page_size=1 * MIB,
        target_split_size=2 * MIB,
        cache_enabled=cache_enabled,
        metadata_cache_enabled=cache_enabled,
    )
