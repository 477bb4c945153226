"""Concrete eviction policies: LRU, FIFO, Random, LFU, Clock.

All policies are O(1) (amortized) per operation.  ``OrderedDict`` provides
the recency/insertion orderings; LFU keeps frequency buckets; Clock keeps a
circular scan position over an insertion-ordered dict.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.page import PageId
from repro.ports.rng import RngStream


class LruPolicy:
    """Least Recently Used -- the production default.

    The OLAP workloads in the paper have strong temporal locality (hot files
    are re-read within minutes), which is exactly the regime where LRU
    approaches optimal.
    """

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def on_put(self, page_id: PageId) -> None:
        self._order[page_id] = None
        self._order.move_to_end(page_id)

    def on_access(self, page_id: PageId) -> None:
        try:
            self._order.move_to_end(page_id)  # one lookup on every hit
        except KeyError:
            pass  # deleted between the read and its bookkeeping

    def on_delete(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)

    def victim(self) -> PageId | None:
        if not self._order:
            return None
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class FifoPolicy:
    """First In First Out: evict in admission order, ignoring hits."""

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def on_put(self, page_id: PageId) -> None:
        if page_id not in self._order:
            self._order[page_id] = None

    def on_access(self, page_id: PageId) -> None:
        pass  # FIFO ignores recency

    def on_delete(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)

    def victim(self) -> PageId | None:
        if not self._order:
            return None
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class RandomPolicy:
    """Evict a uniformly random resident page.

    Swap-remove over a dense list keeps every operation O(1).
    """

    def __init__(self, rng: RngStream | None = None) -> None:
        self._rng = rng if rng is not None else RngStream(0, "eviction/random")
        self._pages: list[PageId] = []
        self._position: dict[PageId, int] = {}

    def on_put(self, page_id: PageId) -> None:
        if page_id in self._position:
            return
        self._position[page_id] = len(self._pages)
        self._pages.append(page_id)

    def on_access(self, page_id: PageId) -> None:
        pass  # random ignores recency

    def on_delete(self, page_id: PageId) -> None:
        index = self._position.pop(page_id, None)
        if index is None:
            return
        last = self._pages.pop()
        if last != page_id:
            self._pages[index] = last
            self._position[last] = index

    def victim(self) -> PageId | None:
        if not self._pages:
            return None
        index = int(self._rng.rng.integers(0, len(self._pages)))
        return self._pages[index]

    def __len__(self) -> int:
        return len(self._pages)


class LfuPolicy:
    """Least Frequently Used with LRU tie-breaking inside each frequency.

    Classic O(1) LFU: frequency buckets of ordered dicts plus a min-frequency
    cursor.
    """

    def __init__(self) -> None:
        self._freq: dict[PageId, int] = {}
        self._buckets: dict[int, OrderedDict[PageId, None]] = {}
        self._min_freq = 0

    def _bucket(self, frequency: int) -> OrderedDict[PageId, None]:
        return self._buckets.setdefault(frequency, OrderedDict())

    def on_put(self, page_id: PageId) -> None:
        if page_id in self._freq:
            self.on_access(page_id)
            return
        self._freq[page_id] = 1
        self._bucket(1)[page_id] = None
        self._min_freq = 1

    def on_access(self, page_id: PageId) -> None:
        frequency = self._freq.get(page_id)
        if frequency is None:
            return
        bucket = self._buckets[frequency]
        del bucket[page_id]
        if not bucket:
            del self._buckets[frequency]
            if self._min_freq == frequency:
                self._min_freq = frequency + 1
        self._freq[page_id] = frequency + 1
        self._bucket(frequency + 1)[page_id] = None

    def on_delete(self, page_id: PageId) -> None:
        frequency = self._freq.pop(page_id, None)
        if frequency is None:
            return
        bucket = self._buckets[frequency]
        del bucket[page_id]
        if not bucket:
            del self._buckets[frequency]
            if self._min_freq == frequency and self._freq:
                self._min_freq = min(self._buckets)

    def victim(self) -> PageId | None:
        if not self._freq:
            return None
        while self._min_freq not in self._buckets:
            self._min_freq = min(self._buckets)
        return next(iter(self._buckets[self._min_freq]))

    def __len__(self) -> int:
        return len(self._freq)


class ClockPolicy:
    """Second-chance (CLOCK): approximate LRU with one reference bit.

    The hand sweeps insertion order; referenced pages get their bit cleared
    and are skipped once.
    """

    def __init__(self) -> None:
        self._referenced: OrderedDict[PageId, bool] = OrderedDict()

    def on_put(self, page_id: PageId) -> None:
        self._referenced[page_id] = False

    def on_access(self, page_id: PageId) -> None:
        if page_id in self._referenced:
            self._referenced[page_id] = True

    def on_delete(self, page_id: PageId) -> None:
        self._referenced.pop(page_id, None)

    def victim(self) -> PageId | None:
        if not self._referenced:
            return None
        # Sweep: clear reference bits until an unreferenced page surfaces.
        # Each pass moves swept pages to the back, so the loop terminates in
        # at most 2 * len passes.
        for __ in range(2 * len(self._referenced)):
            page_id, bit = next(iter(self._referenced.items()))
            if not bit:
                return page_id
            self._referenced[page_id] = False
            self._referenced.move_to_end(page_id)
        return next(iter(self._referenced))  # pragma: no cover - safety net

    def __len__(self) -> int:
        return len(self._referenced)
