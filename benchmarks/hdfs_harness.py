"""Shared harness for the HDFS DataNode benches (Figures 13 and 14).

One DataNode serving a Zipfian block-read trace:

- the node's HDD is the dense, bandwidth-starved SKU of Section 2.2 (its
  single channel is where blocked processes pile up);
- the embedded local cache (SSD) admits hot blocks through
  ``BucketTimeRateLimit``;
- every access is a process on the node's event kernel, started at its
  arrival time: reads (and background writes) overlap and queue FIFO at
  the devices, so device queueing, rate-limiter windows and per-minute
  series are all physically consistent.

Volumes are scaled far below production (32 KiB blocks instead of 128 MiB)
so the simulation holds the cached bytes in memory; the *rates* are chosen
to put the HDD just past saturation without the cache, which is the regime
both figures measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.admission import BucketTimeRateLimit
from repro.hdfs_cache import CachedDataNode
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.sim.kernel import Timeout
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.hdfs import Block, BlockId, DataNode
from repro.workload.zipf import ZipfSampler

KIB = 1024
MIB = 1024 * KIB

BLOCK_SIZE = 32 * KIB
N_BLOCKS = 1200

# how far ahead of its arrival the replay spawns an access's process
SPAWN_AHEAD = 1.0

# A deliberately bandwidth-starved HDD: dense capacity, one actuator.
HDD = DeviceProfile(
    name="dense-hdd", read_bandwidth=60e6, write_bandwidth=50e6,
    seek_latency=0.020, channels=1,
)


@dataclass(slots=True)
class DataNodeSetup:
    clock: SimClock
    datanode: DataNode
    cached: CachedDataNode


def build_datanode(
    *, cache_capacity_bytes: int = 8 * MIB,
    admission_threshold: int = 3,
) -> DataNodeSetup:
    """A DataNode pre-loaded with N_BLOCKS finalized blocks, behind a
    ``CachedDataNode`` whose kernel (``setup.cached.kernel``) the replay
    runs on."""
    clock = SimClock()
    device = StorageDevice(HDD, clock)
    datanode = DataNode("dn-bench", device=device, clock=clock)
    payload = b"\x5a" * BLOCK_SIZE
    for block_id in range(N_BLOCKS):
        datanode.store_block(Block(identity=BlockId(block_id, 1), data=payload))
    # ingest happened "before" the measurement window
    clock.advance(3600.0)
    device.reset_stats()
    cached = CachedDataNode(
        datanode,
        clock=clock,
        cache_capacity_bytes=cache_capacity_bytes,
        page_size=64 * KIB,
        rate_limiter=BucketTimeRateLimit(
            threshold=admission_threshold, window_buckets=10
        ),
    )
    return DataNodeSetup(clock=clock, datanode=datanode, cached=cached)


def replay_trace(
    setup: DataNodeSetup,
    *,
    duration_seconds: float,
    reads_per_second: float,
    zipf_s: float = 1.1,
    seed: int = 7,
    disable_cache_at: float | None = None,
    writes_per_second: float = 0.0,
    write_size: int = 2 * MIB,
) -> None:
    """Replay a Zipfian read trace against the cached DataNode.

    ``disable_cache_at`` switches the cache off mid-replay (the Figure 14
    protocol: "upon disabling the cache at timestamp 70...").
    ``writes_per_second`` adds background ingest writes to the HDD -- load
    the cache cannot absorb, which is why production DataNodes keep a
    residual blocked-process floor even with the cache on.  Timestamps are
    relative to the replay start.

    A driver process walks the sorted arrivals and spawns one process per
    access, timed to its arrival, up to ``SPAWN_AHEAD`` seconds early: the
    driver wakes about once a second instead of once per arrival, and only
    accesses that have (nearly) arrived hold memory.
    """
    rng = RngStream(seed, "hdfs-trace")
    n_reads = int(duration_seconds * reads_per_second)
    n_writes = int(duration_seconds * writes_per_second)
    sampler = ZipfSampler(N_BLOCKS, zipf_s, rng.child("blocks"))
    blocks = sampler.sample(n_reads)
    read_times = rng.child("arrivals").rng.random(n_reads) * duration_seconds
    write_times = rng.child("writes").rng.random(n_writes) * duration_seconds
    sizes = rng.child("sizes").rng.lognormal(9.3, 0.8, size=n_reads)  # ~11KiB median
    events = sorted(
        [(float(t), "r", i) for i, t in enumerate(read_times)]
        + [(float(t), "w", i) for i, t in enumerate(write_times)]
    )
    start = setup.clock.now()
    cached = setup.cached
    kernel = cached.kernel
    hdd = setup.datanode.device

    if disable_cache_at is not None:
        kernel.call_at(start + disable_cache_at, lambda: cached.set_enabled(False))

    def driver():
        for t, kind, i in events:
            when = start + t
            now = setup.clock.now()
            if when > now + SPAWN_AHEAD:
                yield Timeout(when - now)
            if kind == "w":
                kernel.spawn_at(when, hdd.write_proc(write_size),
                                name=f"ingest-write/{i}")
                continue
            size = int(min(max(sizes[i], 1024), BLOCK_SIZE))
            identity = BlockId(int(blocks[i]), 1)
            offset = 0 if size >= BLOCK_SIZE else int(
                rng.rng.integers(0, BLOCK_SIZE - size)
            )
            kernel.spawn_at(
                when, cached.read_block_proc(identity, offset, size),
                name=f"block-read/{i}",
            )

    kernel.spawn(driver(), name="trace-driver")
    kernel.run()
