"""Time-series bucketing for per-minute figures (Figures 13 and 14)."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np


def bucket_series(
    timestamps: Sequence[float],
    values: Sequence[float] | None = None,
    *,
    bucket_seconds: float = 60.0,
    horizon: float | None = None,
) -> dict[int, float]:
    """Sum ``values`` (default: count events) into fixed-width time buckets.

    Returns a dense ``{bucket_index: total}`` covering 0..horizon so flat
    regions show as zeros instead of missing points.  Samples landing
    exactly on (or past) the final bucket boundary are clamped into the
    last bucket rather than spawning a sparse phantom bucket beyond the
    dense range.
    """
    if bucket_seconds <= 0:
        raise ValueError(f"bucket_seconds must be positive, got {bucket_seconds}")
    timestamps = np.asarray(list(timestamps), dtype=np.float64)
    if values is None:
        values_arr = np.ones_like(timestamps)
    else:
        values_arr = np.asarray(list(values), dtype=np.float64)
        if values_arr.shape != timestamps.shape:
            raise ValueError("timestamps and values must have equal length")
    end = horizon if horizon is not None else (
        float(timestamps.max()) if timestamps.size else 0.0
    )
    n_buckets = int(end // bucket_seconds) + 1
    series = {b: 0.0 for b in range(n_buckets)}
    for t, v in zip(timestamps, values_arr):
        idx = min(int(t // bucket_seconds), n_buckets - 1)
        series[idx] += v
    return series


def rate_series(
    byte_buckets: dict[int, float], bucket_seconds: float = 60.0
) -> dict[int, float]:
    """Convert per-bucket byte totals into bytes/second rates."""
    if bucket_seconds <= 0:
        raise ValueError(f"bucket_seconds must be positive, got {bucket_seconds}")
    return {b: total / bucket_seconds for b, total in byte_buckets.items()}


def mean_of(series: Iterable[float]) -> float:
    """Mean of a series; 0.0 if empty."""
    values = list(series)
    return float(np.mean(values)) if values else 0.0


class RingSeries:
    """A bounded ``(timestamp, value)`` time series that drops the oldest.

    Backing store for continuous telemetry: the kernel telemetry sampler
    appends one point per metric per sampling tick, and a soak that
    runs for a million virtual seconds must not grow memory without bound.
    ``dropped`` counts evictions so consumers can tell a complete series
    from a truncated one.
    """

    __slots__ = ("capacity", "_points", "dropped")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._points)

    def append(self, timestamp: float, value: float) -> None:
        """Record a point; evicts the oldest point when at capacity."""
        if len(self._points) == self.capacity:
            self.dropped += 1
        self._points.append((float(timestamp), float(value)))

    def items(self) -> list[tuple[float, float]]:
        """Retained points, oldest first."""
        return list(self._points)

    def timestamps(self) -> list[float]:
        return [t for t, __ in self._points]

    def values(self) -> list[float]:
        return [v for __, v in self._points]

    def last(self) -> tuple[float, float] | None:
        """Most recent point, or None when empty."""
        return self._points[-1] if self._points else None
