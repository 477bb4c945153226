"""Bounded time series for continuous telemetry."""

from __future__ import annotations

from collections import deque


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
