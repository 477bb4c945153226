"""The six workloads: sizes, why each exists, and the seeded request
sequences.  The program under test receives only the generated requests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.core.pagestore import LocalFilePageStore, MemoryPageStore
from repro.ports.clock import WallClock
from repro.ports.rng import RngStream
from repro.workload.zipf import ZipfSampler

from perfbench.fixtures import PatternSource, file_name

KIB = 1024
MIB = 1024 * KIB
PAGE = 64 * KIB
ZIPF_S = 1.1
VERIFY_EVERY = 16
"""Every GET checks its length; one in this many compares full bytes."""

GET, PUT, EVICT = 0, 1, 2

# the server's knobs: today's CacheServer defaults, pinned so a changed
# default shows up as a benchmark change and not as a silent speed-up
EXECUTOR_WORKERS = 8
MAX_INFLIGHT = 32
CONNECTIONS = 2


class Op(NamedTuple):
    kind: int
    file_id: str
    offset: int      # page-aligned byte offset
    full_verify: bool


@dataclass(frozen=True, slots=True)
class Spec:
    name: str
    why: str
    kind: str                 # "svc" | "embed" | "sim"
    segment_ops: int
    n_files: int = 0
    file_bytes: int = 0
    cache_bytes: int = 0
    read_bytes: int = PAGE
    depth: int = 1            # pipelined requests per connection
    sleep_s: float = 0.0      # real sleep per remote read
    local_store: bool = False
    mix: tuple[float, float, float] = (1.0, 0.0, 0.0)  # GET, PUT, EVICT
    warm_ops: int = 0         # 0: prefetch every file instead


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="svc_hot", kind="svc", segment_ops=4000,
            why="TCP GET of 64 KiB, all hits, 8 in flight: per-request cost "
            "of protocol, executor hop, drain and client; the engine is ~4 %.",
            n_files=16, file_bytes=4 * MIB, cache_bytes=256 * MIB, depth=4,
        ),
        Spec(
            name="svc_scan", kind="svc", segment_ops=1000,
            why="Same warm cache, 1 MiB reads (16 pages), 4 in flight: per-byte "
            "cost (chunk joins, frame copies) instead of per-request cost.",
            n_files=16, file_bytes=4 * MIB, cache_bytes=256 * MIB,
            read_bytes=MIB, depth=2,
        ),
        Spec(
            name="svc_miss", kind="svc", segment_ops=2500,
            why="2 GiB over a 32 MiB cache, remote sleeps a real 2 ms, 16 in "
            "flight: miss/admit/evict and overlap of blocking reads across "
            "executor threads; a framing win must not show here.",
            n_files=256, file_bytes=8 * MIB, cache_bytes=32 * MIB, depth=8,
            sleep_s=0.002, warm_ops=1500,
        ),
        Spec(
            name="svc_rw", kind="svc", segment_ops=2000,
            why="70/25/5 GET/PUT/EVICT, 64 MiB over a 48 MiB LocalFilePageStore "
            "(tmp+rename+CRC per put, read+CRC per hit, no fsync): the only "
            "workload where writes and the filesystem are on the path.",
            n_files=32, file_bytes=2 * MIB, cache_bytes=48 * MIB, depth=2,
            local_store=True, mix=(0.70, 0.25, 0.05), warm_ops=2000,
        ),
        Spec(
            name="embed_zipf", kind="embed", segment_ops=30000,
            why="In-process CacheEngine.get from one thread (the paper's "
            "deployment), 512 MiB over 128 MiB: cache_manager, metastore, "
            "eviction and metrics are all of the cost; no service layer runs.",
            n_files=64, file_bytes=8 * MIB, cache_bytes=128 * MIB,
            warm_ops=8000,
        ),
        Spec(
            name="sim_tpcds", kind="sim", segment_ops=99,
            why="One round of the 99 TPC-DS query profiles through the kernel "
            "engine on a fresh 4-worker cluster: the figure wall time the "
            "simulator's users wait on; no sockets, no threads.",
        ),
    )
}


# ---------------------------------------------------------------- sequences


def segment_ops(spec: Spec, seed: int, segment: int) -> list[Op]:
    """The ops of one segment: Zipf(1.1) file popularity x uniform
    page-aligned offsets, op kinds drawn per op from ``spec.mix``.

    Deterministic in ``(seed, segment)``; segment -1 is the warm-up.  Every
    16th PUT is followed by a GET of the same page with a full byte compare.
    """
    count = spec.warm_ops if segment < 0 else spec.segment_ops
    stream = RngStream(seed, f"perfbench/{spec.name}/seg{segment}")
    # which file is hot is itself seeded: rank -> file through a permutation
    ranks = ZipfSampler(spec.n_files, ZIPF_S, stream.child("zipf")).sample(count)
    files = RngStream(seed, f"perfbench/{spec.name}/files").rng.permutation(
        spec.n_files
    )[ranks]
    slots = spec.file_bytes // spec.read_bytes
    offsets = stream.child("offset").rng.integers(0, slots, size=count)
    get_share, put_share, _ = spec.mix
    draws = stream.child("kind").rng.random(count)
    ops: list[Op] = []
    puts = 0
    for i in range(count):
        file_id = file_name(int(files[i]))
        offset = int(offsets[i]) * spec.read_bytes
        if draws[i] < get_share:
            ops.append(Op(GET, file_id, offset, i % VERIFY_EVERY == 0))
        elif draws[i] < get_share + put_share:
            ops.append(Op(PUT, file_id, offset, False))
            puts += 1
            if puts % VERIFY_EVERY == 0:
                ops.append(Op(GET, file_id, offset, True))
        else:
            ops.append(Op(EVICT, file_id, offset, False))
    return ops[:count]


def sequence_hash(ops: list[Op]) -> str:
    """Stable digest of a sequence (tests pin it per seed)."""
    digest = hashlib.blake2b(digest_size=8)
    for op in ops:
        digest.update(
            f"{op.kind}:{op.file_id}:{op.offset}:{int(op.full_verify)};".encode()
        )
    return digest.hexdigest()


# ------------------------------------------------------------------ engines


def make_source(spec: Spec, *, sleep: bool = True) -> PatternSource:
    return PatternSource(
        spec.n_files, spec.file_bytes, sleep_s=spec.sleep_s if sleep else 0.0
    )


def build_engine(
    spec: Spec, source: PatternSource, store_root: Path | None
) -> CacheEngine:
    """The cache core as both the server and the embedded workload run it:
    public constructors, default LRU policy, 64 KiB pages."""
    if spec.local_store:
        assert store_root is not None
        page_store = LocalFilePageStore([store_root], PAGE)
    else:
        page_store = MemoryPageStore()
    return CacheEngine(
        CacheConfig.small(spec.cache_bytes, page_size=PAGE),
        source=source,
        clock=WallClock(),
        page_store=page_store,
    )


def warm(spec: Spec, engine: CacheEngine, source: PatternSource, seed: int) -> None:
    """Bring the cache to its steady state before anything is timed.

    Fitting working sets are prefetched whole; the others replay a seeded
    warm-up sequence (without the remote's sleep) until the cache is full
    and evicting.
    """
    slept, source.sleep_s = source.sleep_s, 0.0
    try:
        if spec.warm_ops == 0:
            for index in range(spec.n_files):
                engine.prefetch(file_name(index))
        else:
            for op in segment_ops(spec, seed, -1):
                engine.get(op.file_id, op.offset, spec.read_bytes)
    finally:
        source.sleep_s = slept
