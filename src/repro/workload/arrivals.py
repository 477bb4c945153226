"""Query arrival processes for concurrent-load experiments.

The paper's production clusters serve ~500 K queries/day with pronounced
bursts (dashboards refresh together).  These generators
produce arrival timestamps for
:meth:`~repro.presto.coordinator.Coordinator.run_concurrent_kernel`:

- :func:`poisson_arrivals` -- homogeneous Poisson (memoryless baseline),
- :func:`bursty_arrivals` -- a two-state on/off modulated process
  (dashboard storms over a quiet background).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ports.rng import RngStream


def poisson_arrivals(
    rate: float, duration: float, rng: RngStream
) -> np.ndarray:
    """Arrival times of a Poisson process with ``rate`` events/second."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    # draw ~expected + slack exponential gaps, then trim to the horizon
    expected = int(rate * duration)
    slack = max(int(4 * math.sqrt(expected + 1)), 16)
    gaps = rng.rng.exponential(1.0 / rate, size=expected + slack)
    times = np.cumsum(gaps)
    while times.size and times[-1] < duration:
        more = rng.rng.exponential(1.0 / rate, size=slack)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < duration]


def bursty_arrivals(
    quiet_rate: float,
    burst_rate: float,
    duration: float,
    rng: RngStream,
    *,
    mean_quiet_seconds: float = 300.0,
    mean_burst_seconds: float = 30.0,
) -> np.ndarray:
    """A two-state modulated Poisson process (quiet background + storms)."""
    if not 0 < quiet_rate <= burst_rate:
        raise ValueError(
            f"need 0 < quiet_rate <= burst_rate, got {quiet_rate}/{burst_rate}"
        )
    if mean_quiet_seconds <= 0 or mean_burst_seconds <= 0:
        raise ValueError("state durations must be positive")
    state_rng = rng.child("states").rng
    pieces: list[np.ndarray] = []
    now = 0.0
    bursting = False
    index = 0
    while now < duration:
        mean = mean_burst_seconds if bursting else mean_quiet_seconds
        hold = float(state_rng.exponential(mean))
        hold = min(hold, duration - now)
        rate = burst_rate if bursting else quiet_rate
        segment = poisson_arrivals(
            rate, hold, rng.child(f"segment{index}")
        )
        pieces.append(segment + now)
        now += hold
        bursting = not bursting
        index += 1
    if not pieces:
        return np.array([])
    return np.concatenate(pieces)
