"""Cache configuration.

All the knobs the paper discusses live here with the production defaults it
reports: 1 MB pages (Section 4.3 / Section 7), SSD-file page store, LRU
eviction, a 10-second local-read timeout with remote fallback (Section 8),
and an optional TTL sweep for privacy-driven expiry (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

DEFAULT_PAGE_SIZE = 1 * MIB
"""Production default after tuning down from the initial 64 MB (Section 7)."""

LEGACY_PAGE_SIZE = 64 * MIB
"""The initial default, matching the HDFS block size (Section 4.3)."""


@dataclass(slots=True)
class CacheDirectory:
    """One cache directory with its own capacity (Section 4.1 "page store").

    In production each directory typically maps to one SSD mount point.
    """

    path: str
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bytes}")


@dataclass(slots=True)
class CacheConfig:
    """Configuration for :class:`~repro.core.cache_manager.LocalCacheManager`.

    Attributes:
        page_size: bytes per cache page.
        directories: cache directories; total capacity is their sum.
        eviction_policy: one of ``lru``, ``fifo``, ``random``, ``lfu``,
            ``clock`` (Section 4.1 lists FIFO, random, LRU; LFU and Clock
            are the pluggable-policy extension point exercised).
        allocator: ``affinity`` (hash of file ID), ``max_free``, or
            ``round_robin``.
        read_timeout: seconds before a local page read falls back to the
            remote source (Section 8 "file read hanging"; production 10 s).
        default_ttl: optional TTL applied to every admitted page.
        lock_stripes: number of lock stripes for fine-grained page locking
            (Section 4.3).
        eviction_batch: how many candidate pages an eviction pass reclaims
            at once before re-checking free space.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    directories: list[CacheDirectory] = field(
        default_factory=lambda: [CacheDirectory("/cache/dir0", 2 * GIB)]
    )
    eviction_policy: str = "lru"
    allocator: str = "affinity"
    read_timeout: float = 10.0
    default_ttl: float | None = None
    lock_stripes: int = 64
    eviction_batch: int = 8

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError(f"page_size must be positive, got {self.page_size}")
        if not self.directories:
            raise ValueError("at least one cache directory is required")
        if self.read_timeout <= 0:
            raise ValueError(f"read_timeout must be positive, got {self.read_timeout}")
        if self.lock_stripes <= 0:
            raise ValueError(f"lock_stripes must be positive, got {self.lock_stripes}")
        if self.eviction_batch <= 0:
            raise ValueError(f"eviction_batch must be positive, got {self.eviction_batch}")
        seen: set[str] = set()
        for directory in self.directories:
            if directory.path in seen:
                raise ValueError(f"duplicate cache directory {directory.path!r}")
            seen.add(directory.path)

    @property
    def capacity_bytes(self) -> int:
        """Total configured cache capacity across all directories."""
        return sum(d.capacity_bytes for d in self.directories)

    @classmethod
    def small(cls, capacity_bytes: int, *, page_size: int = 64 * KIB) -> "CacheConfig":
        """A compact single-directory config convenient in tests."""
        return cls(
            page_size=page_size,
            directories=[CacheDirectory("/cache/dir0", capacity_bytes)],
        )
