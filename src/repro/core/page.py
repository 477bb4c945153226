"""Page identity and metadata.

Alluxio local cache turns file-level reads into page-level operations
(Section 4.3).  A page is identified by the file it belongs to plus its
index within that file; page size is a cache-wide constant (1 MB by
default), so ``page_index = offset // page_size``.

The paper's HDFS append handling (Section 6.2.3) keys cache entries by
``(blockId, generation stamp)`` for snapshot isolation; we express that by
folding the version into the ``file_id`` string (``"blk_17@gs5"``), which
keeps :class:`PageId` format-agnostic.
"""

from __future__ import annotations

import contextlib
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from repro.core.scope import CacheScope


class PageId(NamedTuple("PageId", [("file_id", str), ("page_index", int)])):
    """Globally unique identity of a cached page.

    A tuple with names, not a dataclass: every metastore, policy and
    page-store lookup hashes and compares a page id, and a tuple does both
    in C (DESIGN.md §15).  ``hash(PageId(f, i)) == hash((f, i))``.

    Attributes:
        file_id: opaque identifier of the source file (often a path hash or
            an HDFS ``blockId@generationStamp`` pair).
        page_index: zero-based index of the page within the file.
    """

    __slots__ = ()

    def __new__(cls, file_id: str, page_index: int) -> "PageId":
        if page_index < 0:
            raise ValueError(f"page_index must be >= 0, got {page_index}")
        if not file_id:
            raise ValueError("file_id must be non-empty")
        return tuple.__new__(cls, (file_id, page_index))

    def __str__(self) -> str:
        return f"{self[0]}#{self[1]}"


@dataclass(slots=True)
class PageInfo:
    """Mutable metadata the metastore keeps for one cached page.

    Page *data* lives in the page store (SSD in production); this metadata
    stays in memory for fast lookups, exactly as Section 4.2 prescribes.

    Attributes:
        page_id: identity of the page.
        size: payload size in bytes (the last page of a file may be short).
        scope: logical scope (partition/table/schema) used by the quota
            manager and bulk operations.
        directory: index of the cache directory holding the page file.
        created_at: virtual/real timestamp of admission; when omitted it is
            stamped from the module time source (wall clock by default; see
            :func:`set_time_source`).
        last_access: timestamp of the most recent hit (LRU input).
        access_count: number of hits since admission (LFU input).
        ttl: optional time-to-live in seconds (privacy-driven expiry).
    """

    page_id: PageId
    size: int
    scope: CacheScope = field(default_factory=CacheScope.global_scope)
    directory: int = 0
    created_at: float | None = None
    last_access: float = 0.0
    access_count: int = 0
    ttl: float | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"size must be >= 0, got {self.size}")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if self.created_at is None:
            self.created_at = now_wall()
        if self.last_access == 0.0:
            self.last_access = self.created_at

    @property
    def file_id(self) -> str:
        return self.page_id.file_id

    def is_expired(self, now: float) -> bool:
        """True if this page's TTL has elapsed at time ``now``."""
        return self.ttl is not None and now - self.created_at >= self.ttl


_time_source: Callable[[], float] = _time.time


def now_wall() -> float:
    """Seconds from the module time source (wall clock unless overridden).

    Used to stamp :class:`PageInfo` instances constructed without an
    explicit ``created_at``; simulations pass explicit virtual timestamps
    instead, or install their clock via :func:`set_time_source` for
    deterministic TTL/access stamps in code that cannot thread one through.
    """
    return _time_source()


def set_time_source(source: Callable[[], float]) -> None:
    """Replace the timestamp source (e.g. ``sim_clock.now``).

    Pair with :func:`reset_time_source` -- usually in a ``try/finally`` or
    test fixture -- so an override never leaks across tests.
    """
    global _time_source
    _time_source = source


def reset_time_source() -> None:
    """Restore the default wall-clock time source."""
    global _time_source
    _time_source = _time.time


@contextlib.contextmanager
def installed_time_source(source: Callable[[], float]) -> Iterator[None]:
    """Scoped :func:`set_time_source`: install, run, restore.

    Simulation entry points (benchmark harnesses, the chaos soak, the
    trace replayer) wrap their scenario in this so *every* ``PageInfo``
    stamp -- including ones constructed without an explicit ``created_at``
    deep inside a substrate -- reads virtual time.  The previous source is
    restored even on error, so an override never leaks across scenarios::

        with installed_time_source(clock.now):
            run_scenario()
    """
    global _time_source
    previous = _time_source
    _time_source = source
    try:
        yield
    finally:
        _time_source = previous
