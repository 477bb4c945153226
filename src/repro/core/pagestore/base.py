"""Page store interface."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.page import PageId


@runtime_checkable
class PageStore(Protocol):
    """Byte-payload storage for cache pages.

    Implementations raise:

    - :class:`~repro.errors.PageNotFoundError` on reads of absent pages,
    - :class:`~repro.errors.PageCorruptedError` when a payload fails its
      integrity check,
    - :class:`~repro.errors.CacheReadTimeoutError` when a read exceeds the
      store's timeout budget,
    - :class:`~repro.errors.NoSpaceLeftError` when the device is full even
      though the configured capacity is not reached (Section 8).

    A store whose ``get`` never waits on a device, a file or a timer says
    so with the class attribute ``nonblocking_reads = True``;
    :meth:`LocalCacheManager.read_resident` serves only from such stores,
    and a store that says nothing is treated as blocking.
    """

    def put(self, page_id: PageId, data: bytes, directory: int) -> None:
        """Persist a page payload into ``directory``."""
        ...

    def get(self, page_id: PageId, directory: int,
            offset: int = 0, length: int | None = None,
            *, timeout: float | None = None) -> bytes:
        """Read ``length`` bytes at ``offset`` within a page (whole page by
        default).  ``timeout`` is the caller's read budget in seconds; a
        store that cannot stall ignores it."""
        ...

    def delete(self, page_id: PageId, directory: int) -> bool:
        """Remove a page payload; returns True if it existed."""
        ...

    def contains(self, page_id: PageId, directory: int) -> bool:
        ...

    def bytes_used(self, directory: int) -> int:
        """Payload bytes currently stored in ``directory``."""
        ...
