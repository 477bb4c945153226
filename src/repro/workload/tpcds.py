"""TPC-DS-shaped workload for the Presto simulator (Figures 9, 15, 16).

The paper evaluates Presto local cache on TPC-DS SF100 (Parquet on S3).  We
cannot run real SQL, but the *I/O behaviour* of each query is what the
figures measure, so each of the 99 queries is modelled as a
:class:`QueryProfile`: which tables it scans, what fraction of partitions
and row groups survive pruning, how many columns it projects, and how much
downstream compute follows the scan.  Profiles are generated
deterministically per query number, with the scan-vs-compute balance drawn
so warm-cache speedups land in the paper's ~10-30 % band.

The star schema mirrors TPC-DS's shape: three sales fact tables plus
inventory dominate bytes; dimensions are small and broadly shared.
"""

from __future__ import annotations

from repro.presto.catalog import Catalog, build_table
from repro.presto.query import QueryProfile, TableScan
from repro.presto.operators import ScanProfile
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource

MIB = 1024 * 1024

# (table, share of total bytes, partitions, files per partition, columns)
_FACT_TABLES = (
    ("tpcds.store_sales", 0.40, 16, 4, 23),
    ("tpcds.catalog_sales", 0.22, 16, 4, 34),
    ("tpcds.web_sales", 0.14, 8, 4, 34),
    ("tpcds.inventory", 0.10, 8, 2, 4),
)
_DIM_TABLES = (
    ("tpcds.customer", 0.04, 1, 4, 18),
    ("tpcds.item", 0.03, 1, 2, 22),
    ("tpcds.date_dim", 0.01, 1, 1, 28),
    ("tpcds.store", 0.01, 1, 1, 29),
    ("tpcds.customer_address", 0.02, 1, 2, 13),
    ("tpcds.promotion", 0.01, 1, 1, 19),
    ("tpcds.warehouse", 0.01, 1, 1, 14),
    ("tpcds.web_site", 0.01, 1, 1, 26),
)


def build_tpcds_catalog_fast(
    total_bytes: int = 256 * MIB,
) -> tuple[Catalog, NullDataSource]:
    """Same catalog over a zero-filled source (for latency-only benches)."""
    catalog, source = _build(total_bytes, NullDataSource())
    return catalog, source


def _build(total_bytes: int, source):
    if total_bytes <= 0:
        raise ValueError(f"total_bytes must be positive, got {total_bytes}")
    catalog = Catalog()
    for name, share, n_parts, files_per_part, n_columns in (
        *_FACT_TABLES,
        *_DIM_TABLES,
    ):
        schema, table_name = name.split(".")
        table_bytes = int(total_bytes * share)
        n_files = n_parts * files_per_part
        file_size = max(table_bytes // n_files, 64 * 1024)
        table = build_table(
            schema,
            table_name,
            n_partitions=n_parts,
            files_per_partition=files_per_part,
            file_size=file_size,
            n_columns=n_columns,
            n_row_groups=8,
        )
        catalog.add_table(table)
        for __, data_file in table.all_files():
            source.add_file(data_file.file_id, data_file.size)
    return catalog, source


def _scan_io_weight(table: str, scan: TableScan) -> float:
    """Relative I/O weight of one table scan: the fraction of the whole
    dataset its surviving chunks represent."""
    shares = {name: share for name, share, *__ in (*_FACT_TABLES, *_DIM_TABLES)}
    columns = {name: cols for name, __, __, __, cols in (*_FACT_TABLES, *_DIM_TABLES)}
    projected = min(scan.profile.columns_read, columns[table]) / columns[table]
    return (
        shares[table]
        * scan.partition_fraction
        * projected
        * scan.profile.row_group_selectivity
    )


def tpcds_queries(
    *, seed: int = 2024, count: int = 99, io_heavy: bool = False,
    compute_scale: float = 220.0,
) -> list[QueryProfile]:
    """The 99 query profiles (q1..q99), deterministic for a given seed.

    Each query scans one or two fact tables and a few dimensions, with
    per-query pruning selectivities.  The downstream-compute tail is
    proportional to the query's expected I/O weight (big scans feed big
    joins/aggregations), scaled by ``compute_scale`` and jittered -- this
    is what places warm-cache speedups in the paper's ~10-30 % band rather
    than letting I/O dominate unrealistically.  ``io_heavy`` removes most
    of the compute tail, useful for ablations that isolate I/O effects.
    """
    fact_names = [name for name, *__ in _FACT_TABLES]
    dim_names = [name for name, *__ in _DIM_TABLES]
    queries: list[QueryProfile] = []
    for number in range(1, count + 1):
        rng = RngStream(seed, f"tpcds/q{number}").rng
        n_facts = 1 if rng.random() < 0.7 else 2
        facts = list(rng.choice(fact_names, size=n_facts, replace=False))
        n_dims = int(rng.integers(1, 4))
        dims = list(rng.choice(dim_names, size=n_dims, replace=False))
        scans: list[TableScan] = []
        for table in facts:
            scans.append(
                TableScan(
                    table=str(table),
                    partition_fraction=float(rng.uniform(0.1, 0.6)),
                    profile=ScanProfile(
                        columns_read=int(rng.integers(3, 10)),
                        row_group_selectivity=float(rng.uniform(0.25, 1.0)),
                    ),
                )
            )
        for table in dims:
            scans.append(
                TableScan(
                    table=str(table),
                    partition_fraction=1.0,
                    profile=ScanProfile(
                        columns_read=int(rng.integers(2, 6)),
                        row_group_selectivity=1.0,
                    ),
                )
            )
        io_weight = sum(_scan_io_weight(s.table, s) for s in scans)
        compute = io_weight * compute_scale * float(
            rng.lognormal(mean=0.0, sigma=0.25)
        )
        if io_heavy:
            compute *= 0.05
        queries.append(
            QueryProfile(
                query_id=f"q{number}",
                scans=tuple(scans),
                compute_seconds=compute,
            )
        )
    return queries
