"""The Alluxio local cache: the paper's primary contribution.

Public API::

    from repro.core import (
        LocalCacheManager, CacheConfig, CacheDirectory, CacheScope,
        PageId, QuotaManager, MetricsRegistry,
    )

See :mod:`repro.core.cache_manager` for the request workflow, and the
``admission`` / ``eviction`` / ``pagestore`` subpackages for the pluggable
components.
"""

from repro.core.admission import (
    AdmitAll,
    BucketTimeRateLimit,
    CacheFilter,
    FilterAdmissionPolicy,
    ShadowCache,
)
from repro.core.cache_manager import CacheReadResult, LocalCacheManager
from repro.core.engine import CacheEngine
from repro.core.config import (
    DEFAULT_PAGE_SIZE,
    GIB,
    KIB,
    LEGACY_PAGE_SIZE,
    MIB,
    TIB,
    CacheConfig,
    CacheDirectory,
)
from repro.core.metrics import MetricsRegistry
from repro.core.page import PageId, PageInfo
from repro.core.quota import QuotaManager, QuotaViolation
from repro.core.scope import CacheScope

__all__ = [
    "CacheEngine",
    "LocalCacheManager",
    "CacheReadResult",
    "CacheConfig",
    "CacheDirectory",
    "CacheScope",
    "PageId",
    "PageInfo",
    "QuotaManager",
    "QuotaViolation",
    "MetricsRegistry",
    "AdmitAll",
    "CacheFilter",
    "FilterAdmissionPolicy",
    "BucketTimeRateLimit",
    "ShadowCache",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "DEFAULT_PAGE_SIZE",
    "LEGACY_PAGE_SIZE",
]
