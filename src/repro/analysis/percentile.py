"""Percentile and reduction helpers used by every benchmark."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """The q-th percentile (0-100) with linear interpolation; 0.0 if empty."""
    array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if array.size == 0:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    return float(np.percentile(array, q))


def reduction(before: float, after: float) -> float:
    """Fractional reduction from ``before`` to ``after``.

    ``reduction(100, 33) == 0.67`` -- the form the paper's headline numbers
    take ("P90 ... was reduced by 67%").
    """
    if before <= 0:
        return 0.0
    return (before - after) / before
