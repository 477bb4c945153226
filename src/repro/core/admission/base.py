"""Admission policy interface.

The admission controller (Figure 3) decides what is *cached*, not what is
read: it is asked once per read, at the first page that must be fetched
(a fully resident read never asks), and once per direct put.  Policies see
the file identity and the scope, to reason per file, partition or table.
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
        on every call: each call is one access that fetches, so hits on
        resident pages are not counted.
        """
        ...


class AdmitAll:
    """Cache everything (the baseline the paper's strategies improve on)."""

    def admit(self, file_id: str, scope: CacheScope, now: float) -> bool:
        return True
