"""Exception hierarchy shared across the reproduction.

The paper's failure case studies (Section 8) revolve around three concrete
failure modes observed in production: read hangs on the local SSD, corrupted
page files, and the device filling up before the configured cache capacity is
reached.  Each of those has a dedicated exception type here so that callers
(and tests) can react to the *specific* failure the way the paper describes
-- timeout fallback, early eviction, and early eviction respectively.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CacheError(ReproError):
    """Base class for local-cache errors."""


class PageNotFoundError(CacheError, KeyError):
    """A requested page is not present in the cache."""


class PageCorruptedError(CacheError):
    """A cached page failed its checksum verification (Section 8).

    The cache reacts by deleting the entry (early eviction) and falling back
    to the external data source.
    """


class CacheReadTimeoutError(CacheError, TimeoutError):
    """A local read exceeded the configured timeout (Section 8).

    The paper reports SSD read hangups of up to 10 minutes caused by resource
    contention; a 10-second ``read_file`` timeout with remote fallback proved
    effective, and the cache manager implements exactly that.
    """


class NoSpaceLeftError(CacheError, OSError):
    """The backing device ran out of space before the configured capacity.

    Mirrors the ``No space left on device`` errno the paper catches to
    trigger early eviction (Section 8).
    """


class StorageError(ReproError):
    """Base class for simulated remote-storage errors."""


class BlockNotFoundError(StorageError, KeyError):
    """A requested HDFS block does not exist."""


class FileNotFoundInStorageError(StorageError, KeyError):
    """A requested file does not exist in the remote store."""


class StaleReadError(StorageError):
    """A read raced with a concurrent mutation and saw an old generation."""


class RemoteReadError(StorageError):
    """A remote read failed transiently (injected fault, dropped connection,
    storage-side 5xx).  Retryable, unlike :class:`FileNotFoundInStorageError`."""


class RemoteCorruptionError(RemoteReadError):
    """Remote bytes failed checksum verification in transit.

    Modelled as detected at the transport layer, so the reaction is the
    same as any transient remote failure: retry the request.
    """


class DataNodeOfflineError(StorageError, ConnectionError):
    """The DataNode is down (crashed, restarting, or partitioned away)."""


class CircuitOpenError(ReproError):
    """A circuit breaker rejected the call without attempting it."""


class RetriesExhaustedError(ReproError):
    """Every retry attempt against a remote target failed."""


class SchedulerError(ReproError):
    """The split scheduler could not place a split."""
