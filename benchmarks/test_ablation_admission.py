"""Section 5.1 ablation: admission policy comparison.

Caching everything is not free: at petabyte scale, writing every touched
byte into the SSD churns the cache (admission + eviction traffic) without
improving the hit ratio, because cold data evicts hot data.  This ablation
replays one skewed trace through four admission strategies -- admit-all,
static filters, ``BucketTimeRateLimit``, and the shadow-set rule -- and
compares hit ratio against cache write (churn) traffic.
"""

import pytest

from harness import emit_report, pct
from repro.analysis import Table, format_bytes
from repro.core import CacheConfig, CacheScope, LocalCacheManager
from repro.core.admission import (
    AdmitAll,
    BucketTimeRateLimit,
    FilterAdmissionPolicy,
    ShadowCache,
)
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource
from repro.workload.zipf import ZipfSampler

KIB = 1024
MIB = 1024 * KIB
N_TABLES = 40
FILES_PER_TABLE = 50
N_READS = 40_000
CACHE_CAPACITY = 96 * MIB
FILE_SIZE = 1 * MIB


def make_policies():
    # the filter onboards the hottest quarter of tables, as platform
    # owners do in production
    rules = [{"table": f"wh.table_{t:02d}"} for t in range(N_TABLES // 4)]
    return {
        "admit_all": AdmitAll(),
        "filter(hot tables)": FilterAdmissionPolicy.from_json(rules),
        "rate_limit(3/10min)": BucketTimeRateLimit(threshold=3, window_buckets=10),
        "shadow(seen-before)": ShadowCache(window_buckets=10, bucket_seconds=60),
    }


def run_experiment():
    rng = RngStream(21, "admission-ablation")
    # tables ranked by popularity; files within a table share its rank
    table_sampler = ZipfSampler(N_TABLES, 1.2, rng.child("tables"))
    table_picks = table_sampler.sample(N_READS)
    file_picks = rng.child("files").rng.integers(0, FILES_PER_TABLE, size=N_READS)
    offsets = rng.child("offsets").rng.integers(
        0, FILE_SIZE - 64 * KIB, size=N_READS
    )
    times = rng.child("times").rng.random(N_READS) * 7200.0
    times.sort()

    results = {}
    for name, policy in make_policies().items():
        clock = SimClock()
        source = NullDataSource(base_latency=0.004)
        for t in range(N_TABLES):
            for f in range(FILES_PER_TABLE):
                source.add_file(f"wh/table_{t:02d}/part-{f}", FILE_SIZE)
        cache = LocalCacheManager(
            CacheConfig.small(CACHE_CAPACITY, page_size=256 * KIB),
            clock=clock, admission=policy,
            rng=RngStream(21, f"cache/{name}"),
        )
        for i in range(N_READS):
            clock.advance_to(float(times[i]))
            table = int(table_picks[i])
            file_id = f"wh/table_{table:02d}/part-{int(file_picks[i])}"
            scope = CacheScope.for_partition(
                "wh", f"table_{table:02d}", f"p{int(file_picks[i]) % 4}"
            )
            cache.read(file_id, int(offsets[i]), 64 * KIB, source, scope=scope)
        counters = cache.metrics.counters()
        results[name] = {
            "hit_ratio": cache.metrics.hit_ratio,
            "cache_writes": counters["puts"],
            "evicted_bytes": counters["evicted_bytes"],
            "remote_bytes": counters["bytes_read_remote"],
        }
    return results


@pytest.mark.benchmark(group="ablation_admission")
def test_ablation_admission(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        ["admission policy", "hit ratio", "cache writes (pages)",
         "evicted bytes", "remote bytes"],
        title="Section 5.1 -- admission policies: hit ratio vs churn",
    )
    for name, r in results.items():
        table.add_row(
            [name, pct(r["hit_ratio"]), r["cache_writes"],
             format_bytes(r["evicted_bytes"]), format_bytes(r["remote_bytes"])]
        )
    emit_report("ablation_admission", table.render())

    admit_all = results["admit_all"]
    rate_limit = results["rate_limit(3/10min)"]
    shadow = results["shadow(seen-before)"]
    filtered = results["filter(hot tables)"]
    # selective admission slashes cache-write churn...
    assert rate_limit["cache_writes"] < 0.8 * admit_all["cache_writes"]
    assert shadow["cache_writes"] < admit_all["cache_writes"]
    assert filtered["cache_writes"] < admit_all["cache_writes"]
    # ...while keeping (or improving) most of the hit ratio: the churn the
    # paper's strategies avoid is one-shot data that never pays back
    assert rate_limit["hit_ratio"] > 0.7 * admit_all["hit_ratio"]
    assert shadow["hit_ratio"] > 0.7 * admit_all["hit_ratio"]
