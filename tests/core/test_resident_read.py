"""The non-blocking resident read: ``CacheEngine.get(..., resident_only=True)``.

The service answers hits from its event loop through this primitive, so
four things must hold: it changes exactly what ``get`` changes (a
differential test against an engine that never uses it), it cannot reach
the data source, it declines instead of blocking or half-answering, and it
stays exact while another thread evicts underneath it.
"""

import sys
import threading

import pytest

from repro.core.admission import BucketTimeRateLimit
from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.core.pagestore import LocalFilePageStore, MemoryPageStore
from repro.ports.clock import SimClock
from repro.ports.rng import RngStream
from repro.storage.remote import ReadResult

PAGE = 256
FILES = {f"file-{n}": 5 * PAGE + 37 * n for n in range(6)}  # file-0 ends on a page edge
COUNTERS = ("get_hits", "get_misses", "bytes_read_cache", "bytes_read_remote",
            "puts", "evictions", "ttl_evictions")


def content(file_id: str, offset: int, length: int) -> bytes:
    """Deterministic bytes, different for every (file, position)."""
    salt = sum(file_id.encode())
    return bytes((salt + 7 * i) % 251 for i in range(offset, offset + length))


class PatternSource:
    """A remote that serves ``content`` and can be switched off."""

    def __init__(self) -> None:
        self.dead = False
        self.calls = 0

    def _touch(self) -> None:
        self.calls += 1
        if self.dead:
            raise AssertionError("the resident path touched the data source")

    def file_length(self, file_id: str) -> int:
        self._touch()
        return FILES[file_id]

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        self._touch()
        length = max(0, min(length, FILES[file_id] - offset))
        return ReadResult(content(file_id, offset, length), 0.0)


def make_engine(capacity_pages: int = 12, **kwargs) -> CacheEngine:
    kwargs.setdefault("clock", SimClock())
    kwargs.setdefault("source", PatternSource())
    return CacheEngine(
        CacheConfig.small(capacity_pages * PAGE, page_size=PAGE), **kwargs
    )


def counters(engine: CacheEngine) -> dict[str, int]:
    return {name: engine.metrics.counter(name).value for name in COUNTERS}


def drain_victims(engine: CacheEngine) -> list:
    """The order the eviction policy would give pages up in (destructive)."""
    policy = engine.manager._policies[0]
    order = []
    while (victim := policy.victim()) is not None:
        order.append(victim)
        engine.manager.delete_page(victim)
    return order


class TestDifferential:
    """resident-then-get against get-only: same bytes, counters, LRU order."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences_agree(self, seed):
        rng = RngStream(seed, "resident/differential").rng
        names = sorted(FILES)
        clock_a, clock_b = SimClock(), SimClock()
        with_resident = make_engine(clock=clock_a)
        get_only = make_engine(clock=clock_b)
        answered_inline = 0
        for _ in range(600):
            file_id = names[rng.integers(len(names))]
            verb = rng.choice(["get", "put", "evict", "tick"], p=[0.7, 0.12, 0.12, 0.06])
            if verb == "get":
                offset = int(rng.integers(FILES[file_id] + PAGE))
                length = int(rng.choice([1, PAGE // 3, PAGE, 3 * PAGE, 10 * PAGE]))
                inline = with_resident.get(file_id, offset, length, resident_only=True)
                answered_inline += inline is not None
                mine = inline or with_resident.get(file_id, offset, length)
                theirs = get_only.get(file_id, offset, length)
                assert mine.data == theirs.data
                assert mine.data == content(
                    file_id, offset, max(0, min(length, FILES[file_id] - offset))
                )
                assert (mine.page_hits, mine.page_misses) == (
                    theirs.page_hits, theirs.page_misses
                )
            elif verb == "put":
                index = int(rng.integers(5))
                data = content(file_id, index * PAGE, PAGE)
                ttl = 5.0 if rng.random() < 0.5 else None
                assert with_resident.put(file_id, index, data, ttl=ttl) == \
                    get_only.put(file_id, index, data, ttl=ttl)
            elif verb == "evict":
                index = int(rng.integers(6)) if rng.random() < 0.5 else None
                assert with_resident.evict(file_id, index) == \
                    get_only.evict(file_id, index)
            else:
                clock_a.advance(2.0)
                clock_b.advance(2.0)
                assert with_resident.ttl_sweep() == get_only.ttl_sweep()
            assert counters(with_resident) == counters(get_only)
        assert answered_inline > 50  # the fast path was really exercised
        histogram = "read_latency_seconds"
        assert with_resident.metrics.histogram(histogram).count == \
            get_only.metrics.histogram(histogram).count
        assert drain_victims(with_resident) == drain_victims(get_only)


class TestNeverTouchesTheSource:
    def test_hits_short_last_pages_and_ranges_past_eof(self):
        source = PatternSource()
        engine = make_engine(capacity_pages=64, source=source)
        for file_id, size in FILES.items():
            engine.get(file_id, 0, size)  # warm every page, short tails included
        before = counters(engine)
        source.dead = True
        calls = source.calls
        hits = 0
        size = FILES["file-3"]  # 5 pages + 111 bytes
        cases = [
            ("file-3", 0, PAGE),                  # one whole page
            ("file-3", 10, 3 * PAGE),             # unaligned, four pages
            ("file-3", 5 * PAGE, 50),             # inside the short last page
            ("file-3", 5 * PAGE + 100, 500),      # runs past EOF from the tail
            ("file-3", 4 * PAGE + 7, 10 * PAGE),  # crosses into the tail, past EOF
            ("file-3", 0, 2**32 - 1),             # "the whole file"
            ("file-3", size - 1, 1),              # the last byte
        ]
        for file_id, offset, length in cases:
            result = engine.get(file_id, offset, length, resident_only=True)
            assert result is not None, (offset, length)
            assert result.data == content(
                file_id, offset, min(length, FILES[file_id] - offset)
            )
            assert result.fully_cached and result.page_misses == 0
            hits += result.page_hits
        # what only the source can decide is declined, not guessed
        assert engine.get("file-3", size, 10, resident_only=True) is None
        assert engine.get("file-3", size + 5 * PAGE, 1, resident_only=True) is None
        assert engine.get("file-0", 4 * PAGE, 2 * PAGE, resident_only=True) is None
        assert engine.get("file-3", 0, 0, resident_only=True) is None
        assert engine.get("nobody", 0, 10, resident_only=True) is None
        assert source.calls == calls
        after = counters(engine)
        assert after["get_hits"] - before["get_hits"] == hits
        assert after["get_misses"] == before["get_misses"]

    def test_engine_without_a_source_can_serve_resident_reads(self):
        engine = CacheEngine(CacheConfig.small(8 * PAGE, page_size=PAGE))
        engine.put("f", 0, b"a" * PAGE)
        assert engine.get("f", 3, 5, resident_only=True).data == b"aaaaa"
        with pytest.raises(ValueError):
            engine.get("f", 3, 5)


class TestDeclines:
    def test_a_store_that_may_block_is_never_served_inline(self, tmp_path):
        store = LocalFilePageStore([tmp_path], page_size=PAGE)
        engine = make_engine(page_store=store)
        engine.get("file-1", 0, 2 * PAGE)
        before = counters(engine)
        assert engine.get("file-1", 0, PAGE, resident_only=True) is None
        assert counters(engine) == before
        assert engine.get("file-1", 0, PAGE).page_hits == 1  # it was resident

    def test_a_store_that_says_nothing_is_treated_as_blocking(self):
        class QuietStore(MemoryPageStore):
            nonblocking_reads = False

        class WrappedStore:  # delegates, declares nothing
            def __init__(self) -> None:
                self._inner = MemoryPageStore()

            def __getattr__(self, name):
                return getattr(self._inner, name)

        for store in (QuietStore(), WrappedStore()):
            engine = make_engine(page_store=store)
            engine.get("file-1", 0, PAGE)
            assert engine.get("file-1", 0, PAGE, resident_only=True) is None

    def test_a_partially_resident_range_leaves_no_trace(self):
        engine = make_engine()
        engine.get("file-2", 0, 3 * PAGE)
        engine.evict("file-2", 1)
        before = counters(engine)
        order = [info.page_id for info in engine.manager.metastore._pages]
        stamps = [
            (info.access_count, info.last_access)
            for info in engine.manager.metastore._pages
        ]
        count = engine.metrics.histogram("read_latency_seconds").count
        assert engine.get("file-2", 0, 3 * PAGE, resident_only=True) is None
        assert engine.get("file-2", PAGE - 1, 2, resident_only=True) is None
        assert counters(engine) == before
        assert engine.metrics.histogram("read_latency_seconds").count == count
        assert stamps == [
            (info.access_count, info.last_access)
            for info in engine.manager.metastore._pages
        ]
        # pages 0 and 2 were not promoted by the attempt: same victim order
        assert drain_victims(engine) == order

    def test_a_stateful_policy_gets_the_inline_path_and_is_not_asked(self):
        admission = BucketTimeRateLimit(threshold=2)
        engine = make_engine(admission=admission)
        for _ in range(4):
            engine.get("file-1", 0, PAGE)
        assert engine.contains("file-1", 0)
        count = dict(admission._totals)
        result = engine.get("file-1", 0, PAGE, resident_only=True)
        assert result is not None and result.page_hits == 1
        assert result.data == content("file-1", 0, PAGE)
        assert admission._totals == count == {"file-1": 2}


class TestAgainstAnEvictorThread:
    def test_reads_are_exact_or_declined(self):
        engine = make_engine(capacity_pages=64)
        pages = [(file_id, index) for file_id in FILES for index in range(5)]
        stop = threading.Event()
        failures: list[str] = []

        def churn() -> None:
            rng = RngStream(1, "resident/evictor").rng
            while not stop.is_set():
                file_id, index = pages[rng.integers(len(pages))]
                if rng.random() < 0.5:
                    engine.evict(file_id, index)
                else:
                    engine.put(file_id, index, content(file_id, index * PAGE, PAGE))

        for file_id, index in pages:
            engine.put(file_id, index, content(file_id, index * PAGE, PAGE))
        hits_before = engine.metrics.counter("get_hits").value
        bytes_before = engine.metrics.counter("bytes_read_cache").value
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        evictor = threading.Thread(target=churn)
        evictor.start()
        try:
            rng = RngStream(2, "resident/reader").rng
            answered = declined = page_hits = byte_count = 0
            for _ in range(4000):
                file_id, index = pages[rng.integers(len(pages))]
                offset = index * PAGE + int(rng.integers(PAGE))
                length = int(rng.choice([1, PAGE, 2 * PAGE + 5]))
                length = min(length, 5 * PAGE - offset)  # stay inside the put pages
                result = engine.get(file_id, offset, length, resident_only=True)
                if result is None:
                    declined += 1
                    continue
                answered += 1
                page_hits += result.page_hits
                byte_count += len(result.data)
                if result.data != content(file_id, offset, length):
                    failures.append(f"wrong bytes at {file_id}@{offset}+{length}")
        finally:
            stop.set()
            evictor.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not evictor.is_alive()
        assert failures == []
        assert answered > 100 and declined > 100  # both outcomes really raced
        # every answered request counted all its pages, every declined one none
        assert engine.metrics.counter("get_hits").value - hits_before == page_hits
        assert (
            engine.metrics.counter("bytes_read_cache").value - bytes_before
            == byte_count
        )
