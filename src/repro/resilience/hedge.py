"""Hedged reads: fire a backup request when the primary runs long.

The consistent-hashing lesson of Section 7 handles nodes that are *dead*;
hedging handles nodes that are *slow but alive* (a stalled SSD, a deep
device queue).  The policy tracks recent request latencies and derives a
percentile threshold.  The race itself runs on the event kernel
(``ResilientDataSource._hedged_replay``): a primary still running at the
threshold instant gets a backup, the first to finish serves the read and
the other is cancelled mid-transfer.  At zero contention the read
therefore completes at::

    min(primary_latency, threshold + backup_latency)

the tail-at-scale hedging formula, experienced rather than computed.
Counters: ``hedged_requests`` (backups launched), ``hedge_wins`` (backup
finished first), ``hedge_errors`` (backup attempts that failed; the
primary result stood) and ``hedge_wasted_bytes`` (moved by cancelled
losers).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.metrics import MetricsRegistry


class HedgePolicy:
    """Latency-percentile hedging decision and race accounting.

    Args:
        threshold_percentile: hedge when the primary exceeds this percentile
            of recently observed latencies (the classic choice is p95).
        min_observations: observations required before hedging arms; until
            then every read passes through unhedged.
        max_history: sliding window of latency observations kept.
        metrics: counter sink (``hedged_requests`` / ``hedge_wins``).
    """

    def __init__(
        self,
        *,
        threshold_percentile: float = 95.0,
        min_observations: int = 20,
        max_history: int = 4096,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not 0 < threshold_percentile < 100:
            raise ValueError(
                f"threshold_percentile must be in (0, 100), got {threshold_percentile}"
            )
        if min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        if max_history < min_observations:
            raise ValueError("max_history must be >= min_observations")
        self.threshold_percentile = threshold_percentile
        self.min_observations = min_observations
        self.metrics = metrics if metrics is not None else MetricsRegistry("hedge")
        self._history: deque[float] = deque(maxlen=max_history)
        self.hedged_requests = 0
        self.hedge_wins = 0
        self.hedge_errors = 0
        # bytes actually moved by cancelled hedge losers
        self.wasted_bytes = 0

    def record_cancelled(self, nbytes: int) -> None:
        """Account a cancelled loser's partially transferred bytes."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.wasted_bytes += int(nbytes)
        self.metrics.counter("hedge_wasted_bytes").inc(int(nbytes))

    # -- observation ---------------------------------------------------------

    def observe(self, latency: float) -> None:
        """Feed one completed request's latency into the window."""
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self._history.append(latency)

    @property
    def observations(self) -> int:
        return len(self._history)

    def threshold(self) -> float | None:
        """Current hedge-trigger latency, or ``None`` while unarmed."""
        if len(self._history) < self.min_observations:
            return None
        return float(
            np.percentile(np.asarray(self._history), self.threshold_percentile)
        )
