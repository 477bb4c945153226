"""Section 7 ablation: cache page size -- read amplification vs requests.

"A larger cache page size, while reducing the number of read requests to
remote storage, increases read amplification.  Conversely, smaller cache
page sizes reduce data fetched but increase the metadata memory footprint
and the number of storage requests. ... a cache page size of 1 MB strikes
an optimal balance."

We replay the paper's fragmented-read distribution (>50 % of reads <10 KB)
through caches sized at 25 % of the dataset (so eviction makes wasted
prefetch real) with page sizes from 64 KiB to 64 MiB.  The combined cost
is the total modelled remote I/O time -- per-request overhead plus
bandwidth -- which is exactly the API-cost vs bandwidth-cost trade the
paper describes; it is U-shaped with its minimum at 1 MiB.
"""

import numpy as np
import pytest

from harness import emit_report
from repro.analysis import Table, format_bytes
from repro.core import CacheConfig, LocalCacheManager
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource
from repro.workload.fragments import FragmentedReadGenerator

KIB = 1024
MIB = 1024 * KIB
PAGE_SIZES = [64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB, 64 * MIB]
FILE_SIZE = 64 * MIB
N_FILES = 24
N_READS = 6_000
CACHE_FRACTION = 0.25
BASE_LATENCY = 0.03
BANDWIDTH = 120e6


def run_experiment():
    rng = RngStream(9, "page-size")
    generator = FragmentedReadGenerator(rng.child("sizes"))
    file_ids = [f"wh/t/part-{i}" for i in range(N_FILES)]
    # Zipf-shaped file popularity, matching the skew of Section 2.2
    popularity = 1.0 / (1.0 + np.arange(N_FILES)) ** 1.2
    requests = generator.requests(
        N_READS, file_ids, FILE_SIZE, popularity=popularity
    )
    results = []
    for page_size in PAGE_SIZES:
        source = NullDataSource(base_latency=BASE_LATENCY, bandwidth=BANDWIDTH)
        for file_id in file_ids:
            source.add_file(file_id, FILE_SIZE)
        cache = LocalCacheManager(
            CacheConfig.small(
                int(N_FILES * FILE_SIZE * CACHE_FRACTION), page_size=page_size
            )
        )
        requested_bytes = 0
        for request in requests:
            cache.read(request.file_id, request.offset, request.length, source)
            requested_bytes += request.length
        remote_latency = (
            source.request_count * BASE_LATENCY + source.bytes_served / BANDWIDTH
        )
        results.append(
            {
                "page_size": page_size,
                "remote_requests": source.request_count,
                "amplification": source.bytes_served / requested_bytes,
                "remote_latency": remote_latency,
                "hit_ratio": cache.metrics.hit_ratio,
            }
        )
    return results


@pytest.mark.benchmark(group="ablation_page_size")
def test_ablation_page_size(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = Table(
        ["page size", "remote requests", "read amplification",
         "total remote I/O (s)", "hit ratio"],
        title="Section 7 -- page size: requests vs read amplification",
    )
    for r in results:
        table.add_row(
            [
                format_bytes(r["page_size"]),
                r["remote_requests"],
                f"{r['amplification']:.2f}x",
                f"{r['remote_latency']:.1f}",
                f"{r['hit_ratio']:.2f}",
            ]
        )
    emit_report("ablation_page_size", table.render())

    by_size = {r["page_size"]: r for r in results}
    # the two monotone arms of the trade-off, as Section 7 states:
    for small, large in zip(PAGE_SIZES, PAGE_SIZES[1:]):
        assert (
            by_size[small]["remote_requests"] >= by_size[large]["remote_requests"]
        )
        assert by_size[small]["amplification"] <= by_size[large]["amplification"]
    # and the paper's conclusion: 1 MiB minimizes the combined cost
    best = min(results, key=lambda r: r["remote_latency"])
    assert best["page_size"] == 1 * MIB
    assert by_size[1 * MIB]["remote_latency"] < by_size[64 * KIB]["remote_latency"]
    assert by_size[1 * MIB]["remote_latency"] < by_size[64 * MIB]["remote_latency"]
