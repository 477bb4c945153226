#!/usr/bin/env python3
"""HDFS local cache in a DataNode (Section 6.2).

Walks the full Figure-11 workflow on a simulated DataNode:

- a bandwidth-starved high-density HDD serving block reads,
- the ``BucketTimeRateLimit`` cache rate limiter admitting hot blocks,
- append handling with generation-stamp snapshot isolation,
- block deletion through the in-memory block mapping,
- the restart compromise (cache wiped, rebuilt from the ground up),
- I/O throttling relief: blocked-process counts with and without the cache.

Run:  python examples/hdfs_datanode_cache.py
"""

from repro.core.admission import BucketTimeRateLimit
from repro.hdfs_cache import CachedDataNode
from repro.ports.clock import SimClock
from repro.storage.hdfs import DataNode, DfsClient, NameNode

KIB = 1024
BLOCK_SIZE = 64 * KIB


def main() -> None:
    clock = SimClock()
    datanode = DataNode("dn-01", clock=clock)
    namenode = NameNode([datanode], block_size=BLOCK_SIZE)
    client = DfsClient(namenode)

    # ingest a file of four blocks
    payload = bytes(i % 251 for i in range(4 * BLOCK_SIZE))
    status = client.create("/warehouse/events/part-0", payload)
    print(f"ingest    : {len(status.blocks)} blocks of {BLOCK_SIZE // KIB} KiB")

    cached = CachedDataNode(
        datanode,
        clock=clock,
        cache_capacity_bytes=8 * 1024 * KIB,
        page_size=16 * KIB,
        rate_limiter=BucketTimeRateLimit(threshold=3, window_buckets=10),
    )

    # 1. admission: a block becomes cache-worthy after 3 accesses in 10 min
    hot_block = status.blocks[0]
    print("\nadmission (threshold=3 accesses / 10 min):")
    for attempt in range(5):
        result = cached.read_block(hot_block, 0, 8 * KIB)
        print(f"  access {attempt + 1}: from_cache={result.from_cache} "
              f"latency={result.latency * 1000:.2f} ms")
        clock.advance(30.0)

    # 2. append: generation stamp bumps; the cache isolates snapshots
    print("\nappend with snapshot isolation:")
    print(f"  cached key before append: "
          f"{cached.mapping.lookup(hot_block.block_id).cache_id}")
    client.append("/warehouse/events/part-0", b"NEW" * 100)
    new_last = namenode.get_file_status("/warehouse/events/part-0").blocks[-1]
    print(f"  last block after append : {new_last.cache_key()} "
          f"(generation stamp {new_last.generation_stamp})")
    for __ in range(3):
        cached.read_block(new_last, 0, 8 * KIB)
        clock.advance(10.0)
    print(f"  cached key for new gen  : "
          f"{cached.mapping.lookup(new_last.block_id).cache_id}")

    # 3. delete: the in-memory mapping purges cache entries immediately
    print("\nblock deletion via the in-memory mapping:")
    client.delete("/warehouse/events/part-0")
    purged = cached.on_block_deleted(hot_block.block_id)
    print(f"  purge of blk_{hot_block.block_id}: {purged}; "
          f"mapping now tracks {len(cached.mapping)} blocks")

    # 4. restart: mapping lost => clear all cached contents, rebuild
    print("\nDataNode restart (the paper's compromise):")
    print(f"  pages cached before restart: {cached.cache.page_count}")
    cached.restart()
    print(f"  pages cached after restart : {cached.cache.page_count}")

    # 5. throttling relief: replay a hot-block burst with and without cache
    print("\nI/O throttling (blocked requests on the HDD):")
    status = client.create("/warehouse/events/part-1", payload)
    burst_block = status.blocks[0]
    for enabled in (True, False):
        cached.set_enabled(enabled)
        clock.advance(3600.0)  # a quiet hour between phases
        datanode.device.reset_stats()
        # a 500 req/s burst: each read is a process on the node's kernel,
        # so reads that find the HDD busy queue behind it
        for index in range(200):
            cached.kernel.spawn_at(
                clock.now() + 0.002 * index,
                cached.read_block_proc(burst_block, 0, 48 * KIB),
            )
        cached.kernel.run()
        label = "cache on " if enabled else "cache off"
        print(f"  {label}: blocked={datanode.device.stats.blocked_requests:4d} "
              f"of 200 requests")


if __name__ == "__main__":
    main()
