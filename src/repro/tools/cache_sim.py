"""``repro-cachesim``: offline what-if replay of a trace through the cache.

Operators tune page size, capacity, eviction policy, and admission
thresholds before touching production (Section 7's tuning guidance); this
tool replays a trace CSV (see :mod:`repro.tools.trace_stats` for the
format) through one or more cache configurations and reports per-config
hit ratios, remote bytes, and eviction counts.

Usage::

    repro-cachesim trace.csv --capacity-mb 64 --page-kb 1024 \
        --policy lru --policy lfu --admission-threshold 3
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import Table, format_bytes
from repro.core.admission.rate_limiter import BucketTimeRateLimit
from repro.core.config import CacheConfig
from repro.core.page import installed_time_source
from repro.service.sim_transport import build_sim_cache
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.storage.remote import NullDataSource
from repro.tools.trace_stats import read_trace

KIB = 1024
MIB = 1024 * KIB


def replay(
    trace_path: str,
    *,
    capacity_bytes: int,
    page_size: int,
    policy: str,
    admission_threshold: int | None = None,
    block_size: int = 128 * MIB,
) -> dict:
    """Replay one configuration; returns summary metrics.

    The replay is a simulation entry point, so the virtual clock is
    installed as the page time source for its whole extent (mandatory
    SimClock injection -- determinism invariant DET001).
    """
    trace = read_trace(trace_path)
    clock = SimClock()
    with installed_time_source(clock.now):
        return _replay(
            trace, clock,
            capacity_bytes=capacity_bytes, page_size=page_size,
            policy=policy, admission_threshold=admission_threshold,
            block_size=block_size,
        )


def _replay(
    trace, clock, *, capacity_bytes, page_size, policy,
    admission_threshold, block_size,
) -> dict:
    source = NullDataSource(base_latency=0.004, bandwidth=400e6)
    known: set[int] = set()
    config = CacheConfig.small(capacity_bytes, page_size=page_size)
    config.eviction_policy = policy
    admission = (
        BucketTimeRateLimit(threshold=admission_threshold)
        if admission_threshold is not None
        else None
    )
    cache = build_sim_cache(
        config, clock=clock, admission=admission,
        rng=RngStream(1, f"cachesim/{policy}"),
    )
    requested = 0
    for access in trace:
        clock.advance_to(access.timestamp)
        if access.block_id not in known:
            source.add_file(f"blk_{access.block_id}", block_size)
            known.add(access.block_id)
        if not access.is_read:
            # a write invalidates the block's cached pages
            cache.delete_file(f"blk_{access.block_id}")
            continue
        length = min(access.nbytes, block_size)
        cache.read(f"blk_{access.block_id}", 0, length, source)
        requested += length
    counters = cache.metrics.counters()
    return {
        "policy": policy,
        "capacity": capacity_bytes,
        "page_size": page_size,
        "admission_threshold": admission_threshold,
        "hit_ratio": cache.metrics.hit_ratio,
        "bytes_from_cache": counters["bytes_read_cache"],
        "bytes_from_remote": counters["bytes_read_remote"],
        "evictions": counters["evictions"],
        "requested_bytes": requested,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cachesim",
        description="Replay a trace through cache configurations.",
    )
    parser.add_argument("trace", help="trace CSV path")
    parser.add_argument("--capacity-mb", type=int, default=64)
    parser.add_argument("--page-kb", type=int, default=1024)
    parser.add_argument(
        "--policy", action="append", dest="policies",
        choices=["lru", "fifo", "random", "lfu", "clock", "2q", "slru"],
        help="repeatable; default: lru",
    )
    parser.add_argument("--admission-threshold", type=int, default=None,
                        help="BucketTimeRateLimit threshold (default: admit all)")
    parser.add_argument("--block-size-mb", type=int, default=128)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    policies = args.policies or ["lru"]
    table = Table(
        ["policy", "capacity", "page", "hit ratio", "cache bytes",
         "remote bytes", "evictions"],
        title=f"Cache replay of {args.trace}",
    )
    for policy in policies:
        summary = replay(
            args.trace,
            capacity_bytes=args.capacity_mb * MIB,
            page_size=args.page_kb * KIB,
            policy=policy,
            admission_threshold=args.admission_threshold,
            block_size=args.block_size_mb * MIB,
        )
        table.add_row(
            [
                policy,
                format_bytes(summary["capacity"]),
                format_bytes(summary["page_size"]),
                f"{summary['hit_ratio'] * 100:.1f}%",
                format_bytes(summary["bytes_from_cache"]),
                format_bytes(summary["bytes_from_remote"]),
                summary["evictions"],
            ]
        )
    print(table.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
