"""Reproduction of *Data Caching for Enterprise-Grade Petabyte-Scale OLAP*
(Tang et al., USENIX ATC 2024).

The package implements the Alluxio local (edge) cache -- the paper's
contribution -- together with every substrate its evaluation depends on:

- :mod:`repro.core` -- the local cache (page store, indexed-set metastore,
  admission, hierarchical quotas, pluggable eviction, metrics).
- :mod:`repro.sim` -- the discrete-event kernel (virtual clock, event loop,
  seeded RNG streams).
- :mod:`repro.storage` -- device models, an S3-like object store, and an
  HDFS subset (NameNode / DataNodes / generation stamps).
- :mod:`repro.presto` -- a Presto simulator with soft-affinity scheduling
  and per-query runtime stats.
- :mod:`repro.hdfs_cache` -- the HDFS DataNode local cache with
  ``BucketTimeRateLimit`` admission.
- :mod:`repro.workload` -- Zipfian traces, fragmented-read distributions,
  and TPC-DS-shaped query templates.
- :mod:`repro.analysis` -- percentile/time-series helpers and report tables.

Quickstart::

    from repro.core import LocalCacheManager, CacheConfig, CacheScope
    from repro.storage import SyntheticDataSource

    source = SyntheticDataSource()
    source.add_file("warehouse/orders/part-0.parquet", 8 * 1024 * 1024)
    cache = LocalCacheManager(CacheConfig.small(32 * 1024 * 1024))
    result = cache.read("warehouse/orders/part-0.parquet", 0, 4096, source)
    assert result.page_misses == 1      # cold read went to the source
    again = cache.read("warehouse/orders/part-0.parquet", 0, 4096, source)
    assert again.fully_cached           # warm read served locally
"""

# Convenience exports resolve lazily (PEP 562) so that importing one layer
# does not drag in the others -- in particular, the transport-agnostic cache
# core (repro.core) must be importable without loading the simulation
# substrate (DESIGN.md §14).
_EXPORTS = {
    "CacheConfig": "repro.core",
    "CacheDirectory": "repro.core",
    "CacheReadResult": "repro.core",
    "CacheScope": "repro.core",
    "LocalCacheManager": "repro.core",
    "MetricsRegistry": "repro.core",
    "PageId": "repro.core",
    "QuotaManager": "repro.core",
    "SimClock": "repro.ports",
    "RngStream": "repro.ports",
}

__version__ = "1.0.0"


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = [
    "LocalCacheManager",
    "CacheReadResult",
    "CacheConfig",
    "CacheDirectory",
    "CacheScope",
    "PageId",
    "QuotaManager",
    "MetricsRegistry",
    "SimClock",
    "RngStream",
    "__version__",
]
