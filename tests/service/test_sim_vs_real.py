"""Sim-vs-real agreement: one request sequence, two transports, equal counts.

The virtual-time transport earns trust only if it makes the decisions the
real service makes.  One Zipfian sequence over an evicting cache is
replayed over one real TCP connection to a :class:`CacheServer` and
through :class:`SimTransport` with one kernel client.  Both cores then see
the same requests in the same order, so page hits, misses and evictions
must be equal.  With several connections the server interleaves requests,
evictions happen in a different order, and the counts may differ by a few
pages from run to run; that is why the comparison is made on one.
"""

import asyncio

import pytest

from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.ports.clock import SimClock, WallClock
from repro.ports.rng import RngStream
from repro.service.client import AsyncCacheClient
from repro.service.server import CacheServer
from repro.service.sim_transport import SimTransport, build_sim_engine
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.remote import NullDataSource
from repro.workload.zipf import ZipfSampler

KIB = 1024
MIB = 1024 * KIB
PAGE_KB = 16
FILES = 8
FILE_MB = 1
CAPACITY_MB = 4  # half of the 8 MiB working set: the policy must evict
REQUESTS = 2000
COUNTS = ("get_hits", "get_misses", "evictions")


def file_name(index: int) -> str:
    return f"bench/file-{index:05d}"


def request_sequence(seed: int = 42) -> list[tuple[str, int, int]]:
    """Zipfian file popularity, page-aligned uniform offsets, one page each."""
    rng = RngStream(seed, "sim-vs-real")
    ranks = ZipfSampler(FILES, 1.1, rng.child("files")).sample(REQUESTS)
    pages_per_file = FILE_MB * MIB // (PAGE_KB * KIB)
    offsets = rng.child("offsets").rng.integers(0, pages_per_file, size=REQUESTS)
    return [
        (file_name(int(rank)), int(offset) * PAGE_KB * KIB, PAGE_KB * KIB)
        for rank, offset in zip(ranks, offsets)
    ]


def cache_config(policy: str) -> CacheConfig:
    config = CacheConfig.small(CAPACITY_MB * MIB, page_size=PAGE_KB * KIB)
    config.eviction_policy = policy
    return config


def remote() -> NullDataSource:
    """Counts do not depend on the bytes, so neither leg generates any."""
    source = NullDataSource(base_latency=0.0, bandwidth=1e12)
    for index in range(FILES):
        source.add_file(file_name(index), FILE_MB * MIB)
    return source


def real_counts(policy: str, requests) -> dict[str, int]:
    engine = CacheEngine(cache_config(policy), source=remote(), clock=WallClock())

    async def drive():
        server = CacheServer(engine, host="127.0.0.1", port=0)
        await server.start()
        try:
            client = await AsyncCacheClient.connect(server.host, server.port)
            try:
                for file_id, offset, length in requests:
                    await client.get(file_id, offset, length)
                stats = await client.stats()
            finally:
                await client.close()
        finally:
            drain = await server.drain()
        assert drain["clean"] is True
        return stats["counters"]

    counters = asyncio.run(drive())
    return {name: counters[name] for name in COUNTS}


def sim_counts(policy: str, requests) -> dict[str, int]:
    clock = SimClock()
    engine = build_sim_engine(
        cache_config(policy),
        source=remote(),
        clock=clock,
        device=StorageDevice(DeviceProfile.ssd_local(), clock),
        rng=RngStream(42, "sim-vs-real/cache"),
    )
    outcome = SimTransport(engine).run_closed_loop(requests, clients=1)
    counters = engine.metrics.counters()
    assert (outcome.page_hits, outcome.page_misses) == (
        counters["get_hits"], counters["get_misses"],
    )
    return {name: counters[name] for name in COUNTS}


@pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
def test_one_connection_and_one_sim_client_make_the_same_decisions(policy):
    requests = request_sequence()
    sim = sim_counts(policy, requests)
    assert sim["get_hits"] + sim["get_misses"] == REQUESTS
    assert sim["get_hits"] > 0 and sim["evictions"] > 0
    assert real_counts(policy, requests) == sim
