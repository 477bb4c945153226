"""``CacheReadResult``: a read's chunks as the walk left them, ``data`` their join.

The service sends ``chunks`` without joining them; every other caller reads
``data`` and must see exactly the bytes a joined read gave, with a one-page
read still handing on the store's own object.
"""

from repro.core.cache_manager import CacheReadResult
from repro.core.config import CacheConfig
from repro.core.engine import CacheEngine
from repro.ports.clock import SimClock
from repro.storage.remote import ReadResult

PAGE = 256
FILE = 8 * PAGE + 100
CONTENT = bytes(i % 251 for i in range(FILE))


class Source:
    def file_length(self, file_id: str) -> int:
        return FILE

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        return ReadResult(CONTENT[offset:offset + length], 0.0)


def engine() -> CacheEngine:
    return CacheEngine(
        CacheConfig.small(64 * PAGE, page_size=PAGE), source=Source(), clock=SimClock()
    )


def test_a_multi_page_read_keeps_its_chunks_and_joins_them_once():
    cache = engine()
    for result in (
        cache.get("f", 100, 5 * PAGE),                      # misses
        cache.get("f", 100, 5 * PAGE),                      # hits
        cache.get("f", 100, 5 * PAGE, resident_only=True),  # hits, inline
    ):
        chunks = list(result.chunks)
        assert len(chunks) == 6  # the fragments of pages 0..5
        assert [len(c) for c in chunks] == [PAGE - 100] + [PAGE] * 4 + [100]
        data = result.data
        assert data == b"".join(chunks) == CONTENT[100:100 + 5 * PAGE]
        assert result.data is data  # joined once, then kept
        assert result.chunks == [data]


def test_a_one_page_read_hands_on_the_stores_own_bytes():
    cache = engine()
    page = bytes(range(PAGE))
    assert cache.put("g", 0, page)
    for result in (cache.get("g", 0, PAGE), cache.get("g", 0, PAGE, resident_only=True)):
        assert result.chunks[0] is page
        assert result.data is page


def test_whole_pages_of_a_scan_are_the_stores_objects():
    cache = engine()
    pages = [bytes([n]) * PAGE for n in range(4)]
    for index, page in enumerate(pages):
        cache.put("h", index, page)
    result = cache.get("h", 0, 4 * PAGE, resident_only=True)
    assert all(mine is theirs for mine, theirs in zip(result.chunks, pages))


def test_a_read_past_the_end_is_empty():
    result = engine().get("f", FILE, PAGE)
    assert result.chunks == [] and result.data == b""
    assert CacheReadResult().data == b""
