"""The in-memory block -> cache-entry mapping (Section 6.2.3, "delete a block").

"To improve the efficiency and delete outdated cache entries more timely,
we introduced an in-memory mapping within each DataNode ... of the form
``<blockId, (cacheId, fileLength)>``, where fileLength helps compute the
relevant page files."  The mapping is volatile: a DataNode restart loses
it, and the compromise the paper adopts is to clear the whole cache and
rebuild from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MappingEntry:
    """Where a block's cached copy lives and how big it is."""

    cache_id: str
    file_length: int

    def page_count(self, page_size: int) -> int:
        """How many page files the cached block occupies (the computation
        ``fileLength`` exists to enable)."""
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        return -(-self.file_length // page_size)  # ceil division


class BlockMapping:
    """Volatile ``blockId -> MappingEntry`` map."""

    def __init__(self) -> None:
        self._entries: dict[int, MappingEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._entries

    def record(self, block_id: int, cache_id: str, file_length: int) -> None:
        self._entries[block_id] = MappingEntry(cache_id, file_length)

    def lookup(self, block_id: int) -> MappingEntry | None:
        return self._entries.get(block_id)

    def remove(self, block_id: int) -> MappingEntry | None:
        return self._entries.pop(block_id, None)

    def clear(self) -> None:
        """Forget everything (what a process restart does)."""
        self._entries.clear()
