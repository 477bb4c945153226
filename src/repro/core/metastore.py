"""The page metastore: in-memory metadata over indexed sets (Section 4.4).

The metastore is the "index manager" of Figure 3.  It keeps
:class:`~repro.core.page.PageInfo` for every cached page in an
:class:`~repro.core.indexed_set.IndexedSet` with four indices:

- ``file``  -- pages of one file (file-level bulk delete, Figure 5 A/B/C),
- ``dir``   -- pages on one storage directory/device (Figure 5 1/2; used to
  report per-device usage and to drop everything on a faulty device),
- ``scope`` -- pages under each scope *and all its ancestors* (partition /
  table / schema bulk operations without directory listings),
- lookups by page ID are the primary key, O(1).

It also tracks byte usage per directory and per scope so the allocator and
quota manager never have to iterate pages to answer "how full is X?".
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.indexed_set import Index, IndexedSet
from repro.core.page import PageId, PageInfo
from repro.core.scope import CacheScope


class PageMetaStore:
    """In-memory metadata store for cached pages.

    All methods are O(1) or O(result size); nothing iterates the universe.
    A record is indexed and weighed as it was when added, so the byte
    counters return to zero whatever happens to the ``PageInfo`` meanwhile.
    """

    def __init__(self) -> None:
        self._by_dir: Index[PageInfo] = Index("dir", attrgetter("directory"))
        self._by_scope: Index[PageInfo] = Index(
            "scope", attrgetter("scope.chain_keys"), multi=True
        )
        self._pages: IndexedSet[PageInfo] = IndexedSet(
            primary=attrgetter("page_id"), weight=attrgetter("size")
        )
        self._pages.register_index(Index("file", attrgetter("page_id.file_id")))
        self._pages.register_index(self._by_dir)
        self._pages.register_index(self._by_scope)
        self._records = self._pages.entries
        # pages admitted with a TTL, oldest first: all the sweep looks at
        self._expiring: dict[PageId, PageInfo] = {}

    # -- basic accounting ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._records

    @property
    def bytes_used(self) -> int:
        """Total payload bytes currently cached."""
        return self._pages.total_weight

    def bytes_in_dir(self, directory: int) -> int:
        return self._by_dir.weights.get(directory, 0)

    def bytes_in_scope(self, scope: CacheScope) -> int:
        """Bytes cached under ``scope`` (including all sub-scopes)."""
        return self._by_scope.weights.get(scope.chain_keys[0], 0)

    def pages_in_dir(self, directory: int) -> list[PageInfo]:
        return self._pages.lookup("dir", directory)

    def pages_of_file(self, file_id: str) -> list[PageInfo]:
        return self._pages.lookup("file", file_id)

    def pages_in_scope(self, scope: CacheScope) -> list[PageInfo]:
        """All pages whose scope lies in the subtree rooted at ``scope``."""
        return self._pages.lookup("scope", scope.chain_keys[0])

    def file_ids(self) -> set[str]:
        return set(self._pages.index_keys("file"))

    def scopes(self) -> list[CacheScope]:
        """Every populated scope key (including ancestor roll-ups)."""
        return [CacheScope.parse(k) for k in self._pages.index_keys("scope")]

    def child_scope_usage(self, scope: CacheScope) -> dict[str, int]:
        """Byte usage of each direct child scope of ``scope``.

        Used by table-level random eviction across partitions (Section 5.2).
        """
        prefix = str(scope)
        depth = scope.depth
        usage: dict[str, int] = {}
        for key, value in self._by_scope.weights.items():
            parts = key.split(".")
            if len(parts) == depth + 1 and key.startswith(prefix + "."):
                usage[key] = value
        return usage

    # -- mutation --------------------------------------------------------------

    def get(self, page_id: PageId) -> PageInfo | None:
        entry = self._records.get(page_id)
        return None if entry is None else entry[0]

    def add(self, info: PageInfo) -> bool:
        """Insert page metadata; returns False if the page already exists."""
        if not self._pages.add(info):
            return False
        if info.ttl is not None:
            self._expiring[info.page_id] = info
        return True

    def remove(self, page_id: PageId) -> PageInfo | None:
        """Remove and return page metadata, or ``None`` if absent."""
        info = self._pages.remove_key(page_id)
        if self._expiring:
            self._expiring.pop(page_id, None)
        return info

    def expired_pages(self, now: float) -> list[PageInfo]:
        """Pages whose TTL has elapsed (the periodic sweep's work list)."""
        return [info for info in self._expiring.values() if info.is_expired(now)]
