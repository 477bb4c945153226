"""``BucketTimeRateLimit``: sliding-window admission (Section 6.2.2, Fig 12).

The HDFS local cache admits a block once it "has been accessed more than X
times in the past Y time interval".  The implementation keeps an ordered
list of minute buckets; each bucket maps block -> access count for its
minute.  The window holds a constant number of buckets and drops the oldest
one every minute; a block is cache-worthy when its summed count across live
buckets crosses the threshold (15 in the paper's example figure).

This class is deliberately self-contained (it only needs ``now``), so it
serves both the HDFS local cache and, via
:class:`RateLimitAdmissionPolicy`-style adaptation, the generic admission
interface.
"""

from __future__ import annotations

from collections import deque

from repro.core.scope import CacheScope


class BucketTimeRateLimit:
    """Sliding window of per-minute access-count buckets.

    Args:
        threshold: windowed access count at which a block becomes
            cache-worthy (strictly-greater comparison would be off-by-one
            versus the paper's ">= threshold" example: a block with count 15
            and threshold 15 *is* admitted).
        window_buckets: number of live minute buckets (Y = window_buckets
            minutes).
        bucket_seconds: bucket width; one minute in the paper.

    >>> limiter = BucketTimeRateLimit(threshold=3, window_buckets=2)
    >>> [limiter.record_and_check("blk", t) for t in (0.0, 1.0, 2.0)]
    [False, False, True]
    """

    def __init__(
        self,
        threshold: int = 15,
        window_buckets: int = 10,
        bucket_seconds: float = 60.0,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if window_buckets <= 0:
            raise ValueError(f"window_buckets must be positive, got {window_buckets}")
        if bucket_seconds <= 0:
            raise ValueError(f"bucket_seconds must be positive, got {bucket_seconds}")
        self.threshold = threshold
        self.window_buckets = window_buckets
        self.bucket_seconds = bucket_seconds
        # (bucket_epoch, {key: count}); newest at the right
        self._buckets: deque[tuple[int, dict[str, int]]] = deque()
        # windowed totals maintained incrementally so checks are O(1)
        self._totals: dict[str, int] = {}

    def _epoch(self, now: float) -> int:
        return int(now // self.bucket_seconds)

    def _rotate(self, now: float) -> None:
        """Create the current bucket; expire buckets older than the window."""
        current = self._epoch(now)
        if not self._buckets or self._buckets[-1][0] < current:
            self._buckets.append((current, {}))
        oldest_allowed = current - self.window_buckets + 1
        while self._buckets and self._buckets[0][0] < oldest_allowed:
            __, counts = self._buckets.popleft()
            for key, count in counts.items():
                remaining = self._totals[key] - count
                if remaining:
                    self._totals[key] = remaining
                else:
                    del self._totals[key]

    def record(self, key: str, now: float) -> None:
        """Log one access to ``key`` at time ``now``."""
        self._rotate(now)
        self._buckets[-1][1][key] = self._buckets[-1][1].get(key, 0) + 1
        self._totals[key] = self._totals.get(key, 0) + 1

    def record_and_check(self, key: str, now: float) -> bool:
        """Record an access, then report cache-worthiness (the common path)."""
        self.record(key, now)
        return self._totals[key] >= self.threshold

    # -- AdmissionPolicy protocol ------------------------------------------

    def admit(self, file_id: str, scope: CacheScope, now: float) -> bool:
        """Adapt to :class:`~repro.core.admission.base.AdmissionPolicy`."""
        return self.record_and_check(file_id, now)
