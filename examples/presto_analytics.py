#!/usr/bin/env python3
"""Presto local cache on a TPC-DS-shaped analytics workload (Section 6.1).

Builds a 4-worker Presto cluster with soft-affinity scheduling and per-
worker local caches, runs a slice of the TPC-DS-shaped query set cold and
warm, and prints per-query speedups plus the per-query metrics aggregation
the paper describes (hot partitions, table-level insights).

Run:  python examples/presto_analytics.py
"""

from repro.presto import PrestoCluster
from repro.workload.tpcds import build_tpcds_catalog_fast, tpcds_queries

MIB = 1024 * 1024


def main() -> None:
    catalog, source = build_tpcds_catalog_fast(total_bytes=128 * MIB)
    print(f"catalog   : {len(catalog.tables())} tables, "
          f"{catalog.total_size / MIB:.0f} MiB total")

    cluster = PrestoCluster.create(
        catalog,
        source,
        n_workers=4,
        cache_capacity_bytes=64 * MIB,
        page_size=1 * MIB,
        target_split_size=8 * MIB,
        scheduler="soft_affinity",
        max_replicas=2,
    )

    queries = tpcds_queries(count=12)
    print(f"running   : {len(queries)} TPC-DS-shaped queries, twice "
          f"(cold then warm)\n")

    # one query at a time on an otherwise idle cluster
    cold = [cluster.coordinator.run_query(q) for q in queries]
    warm = [cluster.coordinator.run_query(q) for q in queries]

    print(f"{'query':<6} {'cold (s)':>9} {'warm (s)':>9} {'speedup':>8} "
          f"{'hit ratio':>10}")
    for c, w in zip(cold, warm):
        speedup = (1 - w.wall_seconds / c.wall_seconds) * 100
        print(f"{c.query_id:<6} {c.wall_seconds:>9.3f} {w.wall_seconds:>9.3f} "
              f"{speedup:>7.1f}% {w.stats.cache_hit_ratio:>10.2f}")

    print(f"\ncluster hit ratio: {cluster.coordinator.cluster_hit_ratio():.3f}")
    print("affinity: every split of a file lands on its hash-ring worker "
          f"(fallbacks: {sum(q.stats.cache_bypassed_splits for q in warm)})")

    # the Section 6.1.3 aggregation: table-level insight from query stats
    aggregator = cluster.coordinator.aggregator
    busiest = max(aggregator.tables(),
                  key=lambda t: aggregator.table_insight(t).queries)
    insight = aggregator.table_insight(busiest)
    print(f"\nhottest table      : {busiest} "
          f"({insight.queries} queries, "
          f"cache byte ratio {insight.cache_byte_ratio:.2f})")
    print("hot partitions     :")
    for partition, count in insight.hot_partitions(top=3):
        print(f"  {partition}  ({count} accesses)")

    # per-worker cache usage
    print("\nper-worker cache usage:")
    for name, worker in sorted(cluster.workers.items()):
        print(f"  {name}: {worker.cache_usage_bytes() / MIB:6.1f} MiB, "
              f"hit ratio {worker.cache_hit_ratio:.2f}, "
              f"{worker.splits_executed} splits")


if __name__ == "__main__":
    main()
