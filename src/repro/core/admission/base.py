"""Admission policy interface.

The admission controller (Figure 3) sees every read *before* the cache
lookup; data it declines takes the non-cache read path straight to the
external source.  Policies receive the file identity and the scope so they
can reason at file, partition, or table granularity.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.scope import CacheScope


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides whether a (file, scope) access is cache-worthy."""

    def admit(self, file_id: str, scope: CacheScope, now: float) -> bool:
        """Return True to cache the data, False for the non-cache path.

        ``now`` is virtual time; window-based policies use it to age their
        state.  Implementations may mutate internal state (access counters)
        on every call; one that never does says so with the class attribute
        ``stateless = True``, which is what lets a caller ask it twice
        about one access (``LocalCacheManager.read_resident``, then the
        ``read`` it falls back to).
        """
        ...


class AdmitAll:
    """Cache everything (the baseline the paper's strategies improve on)."""

    stateless = True

    def admit(self, file_id: str, scope: CacheScope, now: float) -> bool:
        return True


class AdmitNone:
    """Cache nothing; turns the cache into a pass-through (for ablations)."""

    stateless = True

    def admit(self, file_id: str, scope: CacheScope, now: float) -> bool:
        return False
