"""Query arrival processes for concurrent-load experiments.

The paper's production clusters serve ~500 K queries/day with pronounced
diurnal cycles and bursts (dashboards refresh together).  These generators
produce arrival timestamps for
:meth:`~repro.presto.coordinator.Coordinator.run_concurrent_kernel`:

- :func:`poisson_arrivals` -- homogeneous Poisson (memoryless baseline),
- :func:`diurnal_arrivals` -- sinusoidal rate via thinning (day/night),
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


def diurnal_arrivals(
    base_rate: float,
    peak_rate: float,
    duration: float,
    rng: RngStream,
    *,
    period: float = 86_400.0,
) -> np.ndarray:
    """Non-homogeneous Poisson with a sinusoidal day/night rate.

    The instantaneous rate swings between ``base_rate`` (trough) and
    ``peak_rate`` (midday); implemented by thinning a homogeneous process
    at the peak rate.
    """
    if not 0 < base_rate <= peak_rate:
        raise ValueError(
            f"need 0 < base_rate <= peak_rate, got {base_rate}/{peak_rate}"
        )
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    candidates = poisson_arrivals(peak_rate, duration, rng.child("thinning"))
    mid = (base_rate + peak_rate) / 2
    amplitude = (peak_rate - base_rate) / 2
    instantaneous = mid - amplitude * np.cos(2 * math.pi * candidates / period)
    keep = rng.child("accept").rng.random(candidates.size) < (
        instantaneous / peak_rate
    )
    return candidates[keep]


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
