"""Shadow cache: seen-before admission without storing data.

A shadow cache tracks *what would be cached* over a sliding time window --
the distinct files seen -- without holding any payload, and admits a file
on its second access within the window.  It is the seen-before rule of the
historical-pattern analysis Section 5.1's sliding-window admission is
built on.
"""

from __future__ import annotations

from collections import deque

from repro.core.scope import CacheScope


class ShadowCache:
    """Sliding-window seen-before admission.

    Keeps the set of file ids accessed in each of the last
    ``window_buckets`` time buckets; a file is admitted when one of them
    holds it.

    >>> shadow = ShadowCache(window_buckets=2, bucket_seconds=60.0)
    >>> scope = CacheScope.global_scope()
    >>> shadow.admit("a", scope, 0.0), shadow.admit("a", scope, 10.0)
    (False, True)
    >>> shadow.admit("a", scope, 180.0)  # two buckets on: forgotten
    False
    """

    def __init__(
        self, window_buckets: int = 60, bucket_seconds: float = 60.0
    ) -> None:
        if window_buckets <= 0:
            raise ValueError(f"window_buckets must be positive, got {window_buckets}")
        if bucket_seconds <= 0:
            raise ValueError(f"bucket_seconds must be positive, got {bucket_seconds}")
        self.window_buckets = window_buckets
        self.bucket_seconds = bucket_seconds
        self._buckets: deque[tuple[int, set[str]]] = deque()

    def _rotate(self, now: float) -> None:
        current = int(now // self.bucket_seconds)
        if not self._buckets or self._buckets[-1][0] < current:
            self._buckets.append((current, set()))
        oldest_allowed = current - self.window_buckets + 1
        while self._buckets and self._buckets[0][0] < oldest_allowed:
            self._buckets.popleft()

    # -- AdmissionPolicy protocol ------------------------------------------

    def admit(self, file_id: str, scope: CacheScope, now: float) -> bool:
        """Admit files already in the shadow working set (seen-before rule)."""
        self._rotate(now)
        seen = any(file_id in files for __, files in self._buckets)
        self._buckets[-1][1].add(file_id)
        return seen
