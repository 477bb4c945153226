"""Section 5.1's two admission-effectiveness claims.

1. Presto local cache with static filter rules: "At Uber, after such
   filtering, less than 10% of requests require remote storage access."
2. HDFS local cache with sliding-window admission: "For the requests which
   fulfill the admission policy, only around 1% of them require slower
   storage access."
"""

import pytest

from harness import emit_report, pct
from repro.analysis import Table
from repro.core import CacheConfig, CacheScope, LocalCacheManager
from repro.core.admission import BucketTimeRateLimit, FilterAdmissionPolicy
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource
from repro.workload.zipf import ZipfSampler

KIB = 1024
MIB = 1024 * KIB


def run_presto_filter_experiment():
    """Zipfian requests against filtered tables; onboarded tables cached."""
    source = NullDataSource(base_latency=0.004)
    n_tables, files_per_table = 20, 8
    file_ids, scopes = [], []
    for t in range(n_tables):
        for f in range(files_per_table):
            file_id = f"wh/table_{t:02d}/part-{f}"
            source.add_file(file_id, 4 * MIB)
            file_ids.append(file_id)
            scopes.append(CacheScope.for_partition("wh", f"table_{t:02d}", "ds=0"))
    # platform owners onboard the hot tables (the paper's static rules)
    rules = [{"table": f"wh.table_{t:02d}"} for t in range(10)]
    cache = LocalCacheManager(
        CacheConfig.small(256 * MIB, page_size=1 * MIB),
        admission=FilterAdmissionPolicy.from_json(rules),
    )
    rng = RngStream(5, "admission/presto")
    # requests are Zipf over files, and the hot (onboarded) tables receive
    # the overwhelming share of traffic -- that is why they were onboarded
    sampler = ZipfSampler(len(file_ids), 1.4, rng)
    remote_requests = 0
    total = 20_000
    for pick in sampler.sample(total):
        index = int(pick)
        result = cache.read(
            file_ids[index], 0, 64 * KIB, source, scope=scopes[index]
        )
        if result.bytes_from_remote > 0:
            remote_requests += 1
    return remote_requests / total


def run_hdfs_rate_limit_experiment():
    """Sliding-window admission: of admitted requests, how many still go
    to slow storage?"""
    source = NullDataSource(base_latency=0.004)
    n_blocks = 2000
    for b in range(n_blocks):
        source.add_file(f"blk_{b}", 1 * MIB)
    clock = SimClock()
    limiter = BucketTimeRateLimit(threshold=4, window_buckets=10)
    cache = LocalCacheManager(
        CacheConfig.small(512 * MIB, page_size=256 * KIB), clock=clock
    )
    rng = RngStream(6, "admission/hdfs")
    sampler = ZipfSampler(n_blocks, 1.2, rng)
    total = 40_000
    admitted = 0
    admitted_with_remote = 0
    picks = sampler.sample(total)
    times = rng.child("times").rng.random(total) * 3600.0
    times.sort()
    for i in range(total):
        clock.advance_to(float(times[i]))
        block = f"blk_{int(picks[i])}"
        if not limiter.record_and_check(block, clock.now()):
            continue  # non-cache path; not an admitted request
        admitted += 1
        result = cache.read(block, 0, 128 * KIB, source)
        if result.bytes_from_remote > 0:
            admitted_with_remote += 1
    return admitted_with_remote / admitted, admitted / total


def run_experiment():
    presto_remote_fraction = run_presto_filter_experiment()
    hdfs_slow_fraction, hdfs_admit_fraction = run_hdfs_rate_limit_experiment()
    return presto_remote_fraction, hdfs_slow_fraction, hdfs_admit_fraction


@pytest.mark.benchmark(group="admission")
def test_admission_effectiveness(benchmark):
    presto_remote, hdfs_slow, hdfs_admitted = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    table = Table(
        ["claim", "measured", "paper"],
        title="Section 5.1 -- admission strategy effectiveness",
    )
    table.add_row(["Presto filters: requests needing remote",
                   pct(presto_remote), "<10%"])
    table.add_row(["HDFS rate limit: admitted requests hitting slow storage",
                   pct(hdfs_slow), "~1%"])
    table.add_row(["HDFS rate limit: fraction of requests admitted",
                   pct(hdfs_admitted), "-"])
    emit_report("admission_effectiveness", table.render())

    assert presto_remote < 0.10
    assert hdfs_slow < 0.03
    # the rate limiter must actually filter (not admit everything)
    assert hdfs_admitted < 0.95
