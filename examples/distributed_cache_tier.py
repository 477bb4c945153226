#!/usr/bin/env python3
"""The distributed cache tier (Figure 6's middle layer).

A fleet of cache workers fronts remote storage; clients route reads via
consistent hashing with at most two replicas (Section 7) and fall back to
remote storage when both are unavailable.  Worker restarts exercise the
"lazy data movement" behaviour: seats are kept for a timeout window, so a
node that returns in time gets its keys -- and its warm cache -- back.

Run:  python examples/distributed_cache_tier.py
"""

from repro.distributed import CacheWorker, DistributedCacheClient
from repro.ports.clock import SimClock
from repro.storage import ObjectStore, ObjectStoreDataSource

KIB = 1024
MIB = 1024 * KIB


def main() -> None:
    clock = SimClock()

    # remote data lake
    store = ObjectStore()
    for n in range(12):
        store.put_object(f"lake/events/part-{n:02d}", bytes([n]) * (2 * MIB))
    source = ObjectStoreDataSource(store)

    # the cache tier: four workers, each embedding the local cache
    workers = [
        CacheWorker(f"cache-worker-{i}", source,
                    cache_capacity_bytes=16 * MIB, page_size=512 * KIB,
                    clock=clock)
        for i in range(4)
    ]
    client = DistributedCacheClient(workers, source, max_replicas=2,
                                    offline_timeout=600.0, clock=clock)

    # 1. warm the tier
    print("warming the tier with two passes over 12 objects...")
    for __ in range(2):
        for n in range(12):
            client.read(f"lake/events/part-{n:02d}", 0, 256 * KIB)
    print(f"  tier hit ratio: {client.tier_hit_ratio():.2f}, "
          f"cached bytes: {client.cached_bytes() // MIB} MiB")
    for worker in workers:
        print(f"  {worker.name}: served {worker.requests_served:3d} requests, "
              f"hit ratio {worker.hit_ratio:.2f}")

    # 2. a worker fails; traffic fails over to the secondary replica
    victim = client.ring.candidates("lake/events/part-00", 1)[0]
    print(f"\nfailing {victim} ...")
    client.worker(victim).fail()
    result = client.read("lake/events/part-00", 0, 64 * KIB)
    print(f"  read served anyway ({len(result.data)} B), "
          f"failovers={client.failovers}, remote_fallbacks="
          f"{client.remote_fallbacks}")

    # 3. lazy data movement: the node returns within the timeout and its
    #    keys map straight back to its still-warm cache
    clock.advance(120.0)
    client.notify_recovered(victim)
    before = client.worker(victim).requests_served
    client.read("lake/events/part-00", 0, 64 * KIB)
    print(f"\n{victim} recovered within the timeout:")
    print(f"  it serves its keys again "
          f"(requests {before} -> {client.worker(victim).requests_served}), "
          f"cache still warm (hit ratio {client.worker(victim).hit_ratio:.2f})")

    # 4. remote fallback when an entire replica set is down
    primary, secondary = client.ring.candidates("lake/events/part-05", 2)
    client.worker(primary).fail()
    client.worker(secondary).fail()
    result = client.read("lake/events/part-05", 0, 64 * KIB)
    print(f"\nboth replicas of part-05 down: read fell back to remote "
          f"storage (remote_fallbacks={client.remote_fallbacks})")


if __name__ == "__main__":
    main()
