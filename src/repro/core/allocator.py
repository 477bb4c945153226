"""Directory allocators (Section 4.1 "allocator").

The allocator assigns each new page to one of the cache directories,
"considering factors like file identification, hash algorithms, directory
capacity, and page affinity."  Three strategies are provided:

- :class:`AffinityAllocator` -- hash of the file ID, so all pages of a file
  land in the same directory (page affinity; the production default),
  overflowing to the emptiest directory when the preferred one is full.
- :class:`MaxFreeAllocator` -- always the directory with the most free
  space (balances usage, destroys affinity).
- :class:`RoundRobinAllocator` -- rotates through directories.
"""

from __future__ import annotations

import zlib
from typing import Protocol

from repro.core.config import CacheConfig
from repro.core.metastore import PageMetaStore


class Allocator(Protocol):
    """Chooses a directory index for a new page of ``size`` bytes.

    Returns the directory index, or ``None`` when no directory could hold
    the page even after hypothetical eviction (page larger than every
    directory).
    """

    def allocate(self, file_id: str, size: int) -> int | None:
        ...


class _BaseAllocator:
    def __init__(self, config: CacheConfig, metastore: PageMetaStore) -> None:
        self._metastore = metastore
        # read once: every put asks, and the directories do not change
        self._capacities = [d.capacity_bytes for d in config.directories]
        self._largest = max(self._capacities)

    def _emptiest(self) -> int:
        return max(
            range(len(self._capacities)),
            key=lambda i: self._capacities[i] - self._metastore.bytes_in_dir(i),
        )


class AffinityAllocator(_BaseAllocator):
    """Hash the file ID onto a directory; overflow to the emptiest one.

    Keeping a file's pages together makes file-level delete touch one device
    and keeps the directory layout of Figure 4 compact.
    """

    def allocate(self, file_id: str, size: int) -> int | None:
        if size > self._largest:
            return None
        count = len(self._capacities)
        # with one directory there is nothing to hash onto
        preferred = zlib.crc32(file_id.encode("utf-8")) % count if count > 1 else 0
        if self._capacities[preferred] >= size:
            return preferred
        return self._emptiest()


class MaxFreeAllocator(_BaseAllocator):
    """Always pick the directory with the most free space."""

    def allocate(self, file_id: str, size: int) -> int | None:
        if size > self._largest:
            return None
        candidate = self._emptiest()
        if self._capacities[candidate] < size:
            return None
        return candidate


class RoundRobinAllocator(_BaseAllocator):
    """Rotate through directories, skipping ones too small for the page."""

    def __init__(self, config: CacheConfig, metastore: PageMetaStore) -> None:
        super().__init__(config, metastore)
        self._cursor = 0

    def allocate(self, file_id: str, size: int) -> int | None:
        total = len(self._capacities)
        for step in range(total):
            index = (self._cursor + step) % total
            if self._capacities[index] >= size:
                self._cursor = (index + 1) % total
                return index
        return None


_ALLOCATORS = {
    "affinity": AffinityAllocator,
    "max_free": MaxFreeAllocator,
    "round_robin": RoundRobinAllocator,
}


def make_allocator(config: CacheConfig, metastore: PageMetaStore) -> Allocator:
    """Instantiate the allocator named by ``config.allocator``."""
    try:
        cls = _ALLOCATORS[config.allocator]
    except KeyError:
        raise ValueError(
            f"unknown allocator {config.allocator!r}; "
            f"choose from {sorted(_ALLOCATORS)}"
        ) from None
    return cls(config, metastore)
