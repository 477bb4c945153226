"""Dict-backed page store (tests, metadata caching)."""

from __future__ import annotations

from repro.core.page import PageId
from repro.errors import NoSpaceLeftError, PageNotFoundError


class MemoryPageStore:
    """In-memory page payload store.

    Optionally enforces a per-directory physical byte limit so tests can
    exercise the ENOSPC early-eviction path without touching a real disk.
    """

    #: ``get`` is a dict lookup and a slice: safe to call on an event loop
    nonblocking_reads = True

    def __init__(self, physical_limit_bytes: int | None = None) -> None:
        if physical_limit_bytes is not None and physical_limit_bytes <= 0:
            raise ValueError(
                f"physical_limit_bytes must be positive, got {physical_limit_bytes}"
            )
        self._physical_limit = physical_limit_bytes
        self._pages: dict[tuple[int, PageId], bytes] = {}
        self._used: dict[int, int] = {}

    def put(self, page_id: PageId, data: bytes, directory: int) -> None:
        key = (directory, page_id)
        new_bytes = len(data) - len(self._pages.get(key, b""))
        if (
            self._physical_limit is not None
            and self._used.get(directory, 0) + new_bytes > self._physical_limit
        ):
            raise NoSpaceLeftError(
                f"no space left on device (dir={directory}, "
                f"used={self._used.get(directory, 0)}, "
                f"limit={self._physical_limit}, incoming={len(data)})"
            )
        self._pages[key] = bytes(data)
        self._used[directory] = self._used.get(directory, 0) + new_bytes

    def get(
        self, page_id: PageId, directory: int,
        offset: int = 0, length: int | None = None,
        *, timeout: float | None = None,
    ) -> bytes:
        try:
            data = self._pages[(directory, page_id)]
        except KeyError:
            raise PageNotFoundError(str(page_id)) from None
        if length is None:
            return data[offset:]
        return data[offset : offset + length]

    def delete(self, page_id: PageId, directory: int) -> bool:
        data = self._pages.pop((directory, page_id), None)
        if data is None:
            return False
        self._used[directory] -= len(data)
        return True

    def contains(self, page_id: PageId, directory: int) -> bool:
        return (directory, page_id) in self._pages

    def bytes_used(self, directory: int) -> int:
        return self._used.get(directory, 0)
