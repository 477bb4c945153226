"""A budget of Python-level calls per ``CacheEngine.get`` (DESIGN.md §15).

The embedded cache pays its bookkeeping on every page of every scan, and in
CPython that bookkeeping is counted in frames.  ``sys.setprofile`` ``call``
events are exact and need no clock, so the budget is a test, not a
benchmark: the commit before the hot-path overhaul made 49 calls per
one-page hit, 29 per ``resident_only`` hit and 107 per miss that evicts a
page.  The source's own frames (two per miss here) are inside the count.
"""

import sys

from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.ports.clock import SimClock
from repro.storage.remote import ReadResult

PAGE = 256
CAPACITY_PAGES = 8
FILE_PAGES = 64
PAGE_BYTES = bytes(PAGE)


class ZeroSource:
    def file_length(self, file_id: str) -> int:
        return FILE_PAGES * PAGE

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        return ReadResult(PAGE_BYTES[:length], 0.0)


def warm_engine() -> CacheEngine:
    """A full cache with every lazy structure (metric handles, scope keys)
    already built; the default config: LRU, no quotas, no-op tracer."""
    engine = CacheEngine(
        CacheConfig.small(CAPACITY_PAGES * PAGE, page_size=PAGE),
        source=ZeroSource(), clock=SimClock(),
    )
    for index in range(2 * CAPACITY_PAGES):  # fills, then evicts
        engine.get("f", index * PAGE, PAGE)
    assert engine.get("f", (2 * CAPACITY_PAGES - 1) * PAGE, PAGE, resident_only=True)
    return engine


def calls_during(fn) -> int:
    count = 0

    def on_event(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count - 1  # `fn` itself


def test_one_page_hit():
    engine = warm_engine()
    offset = (2 * CAPACITY_PAGES - 1) * PAGE
    before = engine.metrics.counters()
    calls = calls_during(lambda: engine.get("f", offset, PAGE))
    after = engine.metrics.counters()
    assert after["get_hits"] - before["get_hits"] == 1
    assert after["get_misses"] == before["get_misses"]
    assert calls <= 20, calls


def test_resident_only_hit():
    engine = warm_engine()
    offset = (2 * CAPACITY_PAGES - 1) * PAGE
    before = engine.metrics.counters()
    calls = calls_during(lambda: engine.get("f", offset, PAGE, resident_only=True))
    assert engine.metrics.counters()["get_hits"] - before["get_hits"] == 1
    assert calls <= 16, calls


def test_miss_that_evicts_one_page():
    engine = warm_engine()
    before = engine.metrics.counters()
    calls = calls_during(lambda: engine.get("f", 40 * PAGE, PAGE))
    after = engine.metrics.counters()
    assert after["get_misses"] - before["get_misses"] == 1
    assert after["puts"] - before["puts"] == 1
    assert after["evictions"] - before["evictions"] == 1
    assert calls <= 50, calls


def test_bound_metric_handles_create_nothing():
    """The manager binds its counters once; a snapshot still shows only the
    well-known counters, and the read-latency histogram only after a read."""
    engine = CacheEngine(CacheConfig.small(CAPACITY_PAGES * PAGE, page_size=PAGE),
                         source=ZeroSource(), clock=SimClock())
    fresh = CacheEngine(CacheConfig.small(CAPACITY_PAGES * PAGE, page_size=PAGE))
    engine.put("f", 0, PAGE_BYTES)
    engine.evict("f", 0)
    assert engine.ttl_sweep() == 0
    assert engine.stats()["histograms"] == {}
    assert set(engine.metrics.counters()) == set(fresh.metrics.counters())
    engine.get("f", 0, PAGE)
    assert set(engine.stats()["histograms"]) == {"read_latency_seconds"}
    assert set(engine.metrics.counters()) == set(fresh.metrics.counters())
