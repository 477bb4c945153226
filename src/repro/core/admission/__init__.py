"""Cache admission strategies (Section 5.1).

Two production strategies, plus helpers:

- :mod:`~repro.core.admission.filters` -- static regex / JSON-rule filters
  with ``maxCachedPartitions`` semantics, as used by Presto local cache.
  At Uber, "after such filtering, less than 10% of requests require remote
  storage access."
- :mod:`~repro.core.admission.rate_limiter` -- ``BucketTimeRateLimit``: a
  sliding window of minute buckets counting block accesses; a block is
  cache-worthy once its windowed count crosses a threshold (Figure 12).
  Used by HDFS local cache, where "only around 1% of [admitted] requests
  require slower storage access."
- :mod:`~repro.core.admission.shadow` -- a shadow working-set estimator for
  sizing and admission experiments.
"""

from repro.core.admission.base import AdmitAll, AdmitNone, AdmissionPolicy
from repro.core.admission.filters import (
    CacheFilter,
    FilterAdmissionPolicy,
    FilterRule,
    parse_filter_rules,
)
from repro.core.admission.rate_limiter import BucketTimeRateLimit
from repro.core.admission.shadow import ShadowCache

__all__ = [
    "AdmissionPolicy",
    "AdmitAll",
    "AdmitNone",
    "CacheFilter",
    "FilterRule",
    "FilterAdmissionPolicy",
    "parse_filter_rules",
    "BucketTimeRateLimit",
    "ShadowCache",
]
