"""The file-metadata cache (Section 6.1.1, Figure 7 right-hand side).

Parsing column-oriented file metadata can consume up to 30 % of worker CPU
(Section 7); caching the *deserialized* objects avoids that.  Metadata is
key-value shaped, so unlike page data it may live in memory or an external
KV store; this implementation is the in-memory option, an LRU-bounded map.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any


class MetadataCache:
    """LRU-bounded key-value cache for deserialized file metadata.

    Keys are file identities (path + version); values are whatever the
    reader produces (``FileMetadata``, stripe indexes, column stats).

    Cache coherence follows the paper's rule: Presto always fetches the
    *latest* file version from storage before splitting, and stale entries
    are invalidated by version-qualified keys -- callers embed the file's
    modification stamp in the key, so an updated file simply misses.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return default

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, key: str) -> bool:
        """Drop one entry (e.g. the backing file changed)."""
        if key not in self._entries:
            return False
        del self._entries[key]
        return True

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
