"""Section 4.1 ablation: eviction policies on a skewed OLAP trace.

The evictor "orchestrates multiple cache eviction strategies, such as FIFO,
random, and LRU ... an interface for the integration of alternative
policies" (LFU and Clock exercise that interface).  On the paper's Zipfian
access pattern, recency/frequency-aware policies must beat FIFO and random.
"""

import pytest

from harness import emit_report, pct
from repro.analysis import Table
from repro.core import CacheConfig, LocalCacheManager
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource
from repro.workload.zipf import ZipfSampler

KIB = 1024
MIB = 1024 * KIB
POLICIES = ["lru", "fifo", "random", "lfu", "clock", "2q", "slru"]
N_FILES = 3000
FILE_SIZE = 256 * KIB
N_READS = 60_000
CACHE_CAPACITY = 64 * MIB  # ~8% of the 750 MiB footprint


def run_experiment():
    rng = RngStream(13, "eviction")
    sampler = ZipfSampler(N_FILES, 1.1, rng.child("zipf"))
    picks = sampler.sample(N_READS)
    offsets = rng.child("offsets").rng.integers(
        0, FILE_SIZE - 32 * KIB, size=N_READS
    )
    results = {}
    for policy in POLICIES:
        source = NullDataSource(base_latency=0.004)
        for f in range(N_FILES):
            source.add_file(f"f{f}", FILE_SIZE)
        config = CacheConfig.small(CACHE_CAPACITY, page_size=64 * KIB)
        config.eviction_policy = policy
        cache = LocalCacheManager(config, rng=RngStream(13, f"cache/{policy}"))
        for i in range(N_READS):
            cache.read(f"f{int(picks[i])}", int(offsets[i]), 32 * KIB, source)
        results[policy] = cache.metrics.hit_ratio
    return results


@pytest.mark.benchmark(group="ablation_eviction")
def test_ablation_eviction(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        ["policy", "page hit ratio"],
        title="Section 4.1 -- eviction policy on a Zipf(1.1) trace",
    )
    for policy in sorted(results, key=results.get, reverse=True):
        table.add_row([policy, pct(results[policy])])
    emit_report("ablation_eviction", table.render())

    # recency/frequency-aware policies beat insertion-order and random
    assert results["lru"] > results["fifo"]
    assert results["lru"] > results["random"]
    assert results["lfu"] >= results["lru"] - 0.02  # LFU shines on static Zipf
    # clock approximates LRU
    assert abs(results["clock"] - results["lru"]) < 0.05
    # every policy gets a healthy hit ratio on this skewed trace
    assert all(ratio > 0.3 for ratio in results.values())
