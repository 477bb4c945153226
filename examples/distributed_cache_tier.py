#!/usr/bin/env python3
"""Soft-affinity failover across a Presto cluster's local caches (Section 7).

Every file has a primary and a secondary worker on the consistent-hash
ring (at most two cache replicas).  A crashed worker keeps its ring seat
for the offline timeout, so its splits run on the secondary meanwhile;
if it comes back in time its keys -- and its still-warm cache -- map
straight back ("lazy data movement").  With both replicas down the split
runs on another worker with the cache bypassed, reading remote storage:
the final fallback.

Run:  python examples/distributed_cache_tier.py
"""

import itertools

from repro.cluster import ClusterLifecycle
from repro.core.config import MIB
from repro.presto import PrestoCluster, QueryProfile, ScanProfile, TableScan
from repro.presto.catalog import Catalog, build_table
from repro.storage import ObjectStore, ObjectStoreDataSource

KIB = 1024
N_FILES = 12
FILE_SIZE = 2 * MIB
PAGE_SIZE = 256 * KIB


def file_query(index: int, file_number: int) -> QueryProfile:
    """Scan one 256 KiB column chunk of file ``file_number``."""
    return QueryProfile(
        query_id=f"q{index:03d}",
        scans=(TableScan(
            "lake.events",
            partition_fraction=1 / N_FILES,
            profile=ScanProfile(columns_read=1, row_group_selectivity=1.0),
            partition_offset=file_number,
        ),),
        compute_seconds=0.0,
    )


def main() -> None:
    # remote data lake: one 2 MiB file per partition, 8 column chunks each
    table = build_table("lake", "events", n_partitions=N_FILES,
                        files_per_partition=1, file_size=FILE_SIZE,
                        n_columns=FILE_SIZE // PAGE_SIZE, n_row_groups=1)
    store = ObjectStore()
    for n, (__, data_file) in enumerate(table.all_files()):
        store.put_object(data_file.file_id, bytes([n]) * FILE_SIZE)
    catalog = Catalog()
    catalog.add_table(table)
    files = [data_file.file_id for __, data_file in table.all_files()]

    # four workers, each embedding the local cache; ring seats are kept
    # for 600 s after a crash
    cluster = PrestoCluster.create(
        catalog, ObjectStoreDataSource(store), n_workers=4,
        cache_capacity_bytes=16 * MIB, page_size=PAGE_SIZE,
        target_split_size=FILE_SIZE, max_replicas=2, offline_timeout=600.0,
    )
    kernel = cluster.kernel
    lifecycle = ClusterLifecycle(cluster, kernel=kernel)
    queries = itertools.count()

    def scan(file_number: int):
        """Run one query now; report which worker ran its split."""
        before = {name: w.splits_executed for name, w in cluster.workers.items()}
        result = cluster.coordinator.run_query(
            file_query(next(queries), file_number)
        )
        ran_on = [name for name, w in cluster.workers.items()
                  if w.splits_executed > before.get(name, 0)]
        return result.stats, ran_on[0]

    # 1. warm the cache
    print(f"warming the cache with two passes over {N_FILES} files...")
    for __ in range(2):
        for n in range(N_FILES):
            scan(n)
    print(f"  cluster hit ratio: {cluster.coordinator.cluster_hit_ratio():.2f}")
    for name, worker in cluster.workers.items():
        print(f"  {name}: ran {worker.splits_executed:2d} splits, "
              f"hit ratio {worker.cache_hit_ratio:.2f}, "
              f"{worker.cache_usage_bytes() // KIB} KiB cached")

    # 2. the primary of part 0 fails; its split goes to the secondary replica
    primary, secondary = cluster.ring.candidates(files[0], 2)
    print(f"\ncrashing {primary} (primary of part 0) ...")
    lifecycle.crash(primary)
    stats, ran_on = scan(0)
    print(f"  split ran on {ran_on} (the secondary is {secondary}), "
          f"{stats.page_misses} page miss(es) warming it")

    # 3. lazy data movement: back within the offline timeout, the node's
    #    keys map straight back to its still-warm cache
    kernel.run_until(kernel.clock.now() + 120.0)
    assert lifecycle.expire_tick() == []  # seat kept: 120 s < 600 s
    lifecycle.restart(primary)
    stats, ran_on = scan(0)
    print(f"\n{primary} restarted 120 s later, inside the timeout:")
    print(f"  split ran on {ran_on} again, "
          f"{stats.page_hits} page hit(s) from its still-warm cache")

    # 4. both replicas of part 5 die at once, before membership hears of
    #    it (their ring seats still stand): remote storage is the final
    #    fallback
    primary, secondary = cluster.ring.candidates(files[5], 2)
    cluster.workers[primary].fail()
    cluster.workers[secondary].fail()
    stats, ran_on = scan(5)
    print(f"\nboth replicas of part 5 ({primary}, {secondary}) down: the split "
          f"ran on {ran_on} with the cache bypassed "
          f"({stats.cache_bypassed_splits} bypassed split, "
          f"{stats.bytes_from_remote // KIB} KiB from remote storage)")


if __name__ == "__main__":
    main()
