"""Golden cache-core decisions: the hot-path overhaul changed no outcome.

``golden_core_decisions.json`` was recorded from the commit *before* the
core hot path was rewritten (DESIGN.md §15).  Each scenario drives one
:class:`CacheEngine` through a seeded sequence of every verb the core has --
reads of one page, many pages, ranges past end-of-file and
``resident_only`` reads; puts, evictions, scope and directory drops, TTL
sweeps; partition-level and table-random quota violations -- over a page
store that fails on a schedule (timeout, corruption, lost payload, ENOSPC),
and hashes everything an embedder can observe: every field of every
``CacheReadResult``, the order pages leave the store in, the counters and
the error breakdown, bucket *order* of the scope and directory indices,
byte usage per scope, each record's stamps, the read-latency histogram, the
spans a tracer saw, and the order the eviction policy would give the
survivors up in.

The file holds a digest per 50 ops so a mismatch names the first block
that diverged.  Re-record (only for an intended change of behaviour) with
``PYTHONPATH=src python tests/core/test_golden_decisions.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import CacheConfig, CacheDirectory
from repro.core.engine import CacheEngine
from repro.core.pagestore import MemoryPageStore
from repro.core.quota import QuotaManager
from repro.core.scope import CacheScope
from repro.errors import (
    CacheReadTimeoutError,
    NoSpaceLeftError,
    PageCorruptedError,
    PageNotFoundError,
)
from repro.obs.tracer import SimTracer, installed_tracer
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.storage.remote import ReadResult

GOLDEN_PATH = Path(__file__).with_name("golden_core_decisions.json")
POLICIES = ("lru", "fifo", "lfu", "random", "clock", "2q", "slru")
DIRECTORY_PAGES = {1: (32,), 3: (12, 11, 9)}
SEEDS = range(8)
OPS = 400
BLOCK = 50

PAGE = 64
TABLE = CacheScope.for_table("s", "t")
PARTITIONS = [TABLE.child(name) for name in "abc"]
# file -> (length, scope); "f7" is read without a scope (the global scope)
FILES = {
    f"f{n}": (
        (3 + n % 5) * PAGE + 11 * n,
        [*PARTITIONS, CacheScope.for_partition("s", "u", "d"), TABLE][n % 5]
        if n < 7 else None,
    )
    for n in range(8)
}


def content(file_id: str, offset: int, length: int) -> bytes:
    salt = sum(file_id.encode())
    return bytes((salt + 5 * i) % 251 for i in range(offset, offset + length))


class Source:
    """A remote with a latency that depends on what was asked."""

    def __init__(self, decomposes: bool) -> None:
        if decomposes:  # the side channels `_charge_remote` reads
            self.last_retry_backoff = 0.0
            self.last_queue_wait = 0.0
        self._decomposes = decomposes

    def file_length(self, file_id: str) -> int:
        return FILES[file_id][0]

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        length = max(0, min(length, FILES[file_id][0] - offset))
        latency = 1e-3 + 1e-5 * (offset % 7) + 1e-6 * length
        if self._decomposes:
            self.last_retry_backoff = 2e-4 * (offset % 3 == 1)
            self.last_queue_wait = 1e-4 * (offset % 2)
        return ReadResult(content(file_id, offset, length), latency)


class FaultyStore(MemoryPageStore):
    """Fails on a schedule of call counts and logs every delete."""

    def __init__(self, models_latency: bool) -> None:
        super().__init__()
        self.gets = self.puts = 0
        self.deleted: list[str] = []
        self._refuse_next_put = False
        self._models_latency = models_latency
        if models_latency:
            self.last_op_latency = 0.0
            self.last_op_wait = 0.0

    def get(self, page_id, directory, offset=0, length=None, *, timeout=None):
        self.gets += 1
        if self.gets % 23 == 0:
            raise CacheReadTimeoutError(str(page_id))
        if self.gets % 29 == 0:
            raise PageCorruptedError(str(page_id))
        if self.gets % 31 == 0:
            MemoryPageStore.delete(self, page_id, directory)  # the payload is lost
        data = super().get(page_id, directory, offset, length, timeout=timeout)
        if self._models_latency:
            self.last_op_latency = 1e-4 * (1 + page_id.page_index % 3)
            self.last_op_wait = 2e-5 * (self.gets % 2)
        return data

    def put(self, page_id, data, directory):
        self.puts += 1
        if self._refuse_next_put or self.puts % 23 == 0:
            # every 46th put fails its retry as well
            self._refuse_next_put = self.puts % 46 == 0
            raise NoSpaceLeftError(f"injected at put {self.puts}")
        super().put(page_id, data, directory)

    def delete(self, page_id, directory):
        self.deleted.append(f"{page_id}@{directory}")
        return super().delete(page_id, directory)


class NeverF3:
    """Sends one file down the non-cache path."""

    def admit(self, file_id, scope, now):
        return file_id != "f3"


class BlockingFaultyStore(FaultyStore):
    nonblocking_reads = False


def build(policy: str, n_dirs: int, seed: int) -> tuple[CacheEngine, SimClock, FaultyStore]:
    # the arms rotate with the seed so every policy sees every combination:
    # odd seeds run a latency-modelling store that may block (resident reads
    # always decline), even seeds a silent non-blocking one
    store = BlockingFaultyStore(True) if seed % 2 else FaultyStore(False)
    admission = NeverF3() if seed % 4 else None
    clock = SimClock()
    engine = CacheEngine(
        CacheConfig(
            page_size=PAGE,
            directories=[
                CacheDirectory(f"/golden/d{i}", pages * PAGE)
                for i, pages in enumerate(DIRECTORY_PAGES[n_dirs])
            ],
            eviction_policy=policy,
            eviction_batch=2,
        ),
        source=Source(decomposes=seed % 4 >= 2),
        clock=clock,
        page_store=store,
        admission=admission,
        quota=QuotaManager(),
        rng=RngStream(seed, "golden/engine"),
    )
    return engine, clock, store


def describe(result) -> str:
    if result is None:
        return "declined"
    return (
        f"{hashlib.blake2b(result.data, digest_size=8).hexdigest()}:{len(result.data)}"
        f":{result.latency!r}:{result.page_hits}:{result.page_misses}"
        f":{result.bytes_from_cache}:{result.bytes_from_remote}:{result.fallbacks}"
        f":{result.fully_cached}"
    )


def step(engine: CacheEngine, clock: SimClock, rng, n_dirs: int) -> str:
    """Draw and apply one op; returns the line that goes into the digest."""
    names = sorted(FILES)
    # the smaller of two draws: low-numbered files are hot
    file_id = names[int(rng.integers(len(names), size=2).min())]
    length, scope = FILES[file_id]
    manager = engine.manager
    verb = str(rng.choice(
        ["get", "resident", "put", "evict", "drop_scope", "drop_dir", "sweep", "quota"],
        p=[0.55, 0.15, 0.08, 0.06, 0.015, 0.01, 0.045, 0.09],
    ))
    clock.advance(float(rng.integers(1, 4)) * 0.25)
    if verb in ("get", "resident"):
        offset = int(rng.integers(length + PAGE))  # some start past EOF
        size = int(rng.choice(
            [1, PAGE // 3, PAGE, 2 * PAGE, 3 * PAGE, 9 * PAGE],
            p=[0.25, 0.2, 0.25, 0.15, 0.1, 0.05],
        ))
        ttl = 6.0 if rng.random() < 0.1 else None
        line = f"{verb} {file_id} {offset} {size} {ttl}"
        if verb == "resident":
            inline = engine.get(file_id, offset, size, scope=scope, resident_only=True)
            line += " " + describe(inline)
            if inline is not None:
                return line
        return line + " " + describe(
            engine.get(file_id, offset, size, scope=scope, ttl=ttl)
        )
    if verb == "put":
        index = int(rng.integers(-(-length // PAGE)))
        data = content(file_id, index * PAGE, min(PAGE, length - index * PAGE))
        ttl = 6.0 if rng.random() < 0.3 else None
        return f"put {file_id} {index} {ttl} {engine.put(file_id, index, data, scope=scope, ttl=ttl)}"
    if verb == "evict":
        index = int(rng.integers(6)) if rng.random() < 0.7 else None
        return f"evict {file_id} {index} {engine.evict(file_id, index)}"
    if verb == "drop_scope":
        target = [TABLE, *PARTITIONS, CacheScope.parse("s")][int(rng.integers(5))]
        return f"drop_scope {target} {manager.delete_scope(target)}"
    if verb == "drop_dir":
        directory = int(rng.integers(n_dirs))
        return f"drop_dir {directory} {manager.delete_dir(directory)}"
    if verb == "sweep":
        return f"sweep {manager.ttl_sweep()}"
    # quota: a partition limit (cured by LRU inside the partition), a table
    # limit (cured by random eviction across its partitions), a limit below
    # one page (nothing ever fits); half the time the limits are lifted
    kind = int(rng.integers(6))
    target = PARTITIONS[int(rng.integers(3))]
    if kind == 0:
        manager.quota.set_quota(target, 2 * PAGE)
    elif kind == 1:
        manager.quota.set_quota(TABLE, 5 * PAGE)
    elif kind == 2:
        manager.quota.set_quota(target, PAGE // 2)
    else:
        for scope in (TABLE, *PARTITIONS):
            manager.quota._quotas.pop(str(scope), None)
    return f"quota {kind} {target} {len(manager.quota)}"


def final_state(engine: CacheEngine, store: FaultyStore, tracer, n_dirs: int) -> list[str]:
    manager, metastore = engine.manager, engine.manager.metastore
    lines = [
        "victims " + ",".join(store.deleted),
        f"store {store.gets} {store.puts}",
        "counters " + json.dumps(engine.metrics.counters(), sort_keys=True),
        "errors " + json.dumps(engine.metrics.error_breakdown(), sort_keys=True),
        f"used {manager.bytes_used} {manager.page_count}",
    ]
    for scope in metastore.scopes():  # index-key order is part of the contract
        ids = ",".join(str(info.page_id) for info in metastore.pages_in_scope(scope))
        lines.append(f"scope {scope} {metastore.bytes_in_scope(scope)} {ids}")
    for directory in range(n_dirs):
        ids = ",".join(str(info.page_id) for info in metastore.pages_in_dir(directory))
        lines.append(
            f"dir {directory} {metastore.bytes_in_dir(directory)} "
            f"{store.bytes_used(directory)} {ids}"
        )
    for info in metastore._pages:
        lines.append(
            f"page {info.page_id} {info.size} {info.scope} {info.directory} "
            f"{info.created_at!r} {info.last_access!r} {info.access_count} {info.ttl}"
        )
    histogram = engine.metrics.histogram("read_latency_seconds")
    lines.append(f"latency {histogram.count} {histogram.total!r} {histogram.exemplars()}")
    if tracer is not None:
        assert tracer.open_spans() == []
        for span in tracer.buffer.spans():
            lines.append("span " + json.dumps(span.to_dict(), sort_keys=True))
    for directory, policy in enumerate(manager._policies):
        order = []
        while (victim := policy.victim()) is not None:
            order.append(str(victim))
            manager.delete_page(victim)
        lines.append(f"drain {directory} " + ",".join(order))
    lines.append(f"empty {manager.bytes_used} {manager.page_count} {metastore.scopes()}")
    return lines


def run_scenario(policy: str, n_dirs: int, seed: int) -> list[str]:
    """The digests of one scenario: one per ``BLOCK`` ops, then the final state."""
    engine, clock, store = build(policy, n_dirs, seed)
    rng = RngStream(seed, f"golden/{policy}/{n_dirs}").rng
    tracer = SimTracer(clock, RngStream(seed, "golden/tracer")) if seed % 4 == 3 else None
    digest = hashlib.blake2b(digest_size=8)
    digests = []

    def drive() -> None:
        for done in range(1, OPS + 1):
            digest.update(step(engine, clock, rng, n_dirs).encode())
            digest.update(b"\n")
            if done % BLOCK == 0:
                digests.append(digest.hexdigest())

    if tracer is None:
        drive()
    else:
        with installed_tracer(tracer):
            drive()
    for line in final_state(engine, store, tracer, n_dirs):
        digest.update(line.encode())
        digest.update(b"\n")
    digests.append(digest.hexdigest())
    return digests


def scenario_key(policy: str, n_dirs: int, seed: int) -> str:
    return f"{policy}/{n_dirs}dir/seed{seed}"


@pytest.mark.parametrize("n_dirs", sorted(DIRECTORY_PAGES))
@pytest.mark.parametrize("policy", POLICIES)
def test_decisions_match_the_recording(policy, n_dirs):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["scenarios"]
    for seed in SEEDS:
        want = golden[scenario_key(policy, n_dirs, seed)]
        got = run_scenario(policy, n_dirs, seed)
        firsts = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert got == want, (
            f"{scenario_key(policy, n_dirs, seed)} diverges from the recording in "
            f"ops {firsts[0] * BLOCK}..{(firsts[0] + 1) * BLOCK} "
            f"(block {firsts[0]} of {len(want)}; the last block is the final state)"
        )


def test_the_scenarios_reach_every_branch_they_claim():
    """The recording is only a proof if the sequence really gets there."""
    seen: dict[str, int] = {}
    errors: set[str] = set()
    for seed in SEEDS:
        engine, clock, store = build("lru", 3, seed)
        rng = RngStream(seed, "golden/lru/3").rng
        for _ in range(OPS):
            step(engine, clock, rng, 3)
        for name, value in engine.metrics.counters().items():
            seen[name] = seen.get(name, 0) + value
        for kinds in engine.metrics.error_breakdown().values():
            errors.update(kinds)
    for name in (
        "get_hits", "get_misses", "puts", "evictions", "ttl_evictions",
        "timeout_fallbacks", "corruption_evictions", "put_rejected_admission",
        "put_rejected_quota", "put_rejected_space",
    ):
        assert seen[name] > 0, name
    assert errors == {
        "CacheReadTimeoutError", "PageCorruptedError", "PageNotFoundError",
        "NoSpaceLeftError",
    }


if __name__ == "__main__":
    recording = {
        "comment": (
            "blake2b digests of tests/core/test_golden_decisions.py scenarios, "
            "one per 50 ops plus the final state; recorded from the commit before "
            "the core hot-path overhaul (DESIGN.md section 15). Re-record only for "
            "an intended change of cache behaviour."
        ),
        "scenarios": {
            scenario_key(policy, n_dirs, seed): run_scenario(policy, n_dirs, seed)
            for policy in POLICIES
            for n_dirs in sorted(DIRECTORY_PAGES)
            for seed in SEEDS
        },
    }
    GOLDEN_PATH.write_text(json.dumps(recording, indent=1) + "\n", encoding="utf-8")
