"""Bounded Zipf sampling and exponent fitting (Figure 2).

The paper characterizes Presto file popularity as Zipfian with a factor of
up to 1.39: the k-th most popular file receives traffic proportional to
``k**-s``.  :class:`ZipfSampler` draws ranks from that law over a finite
universe; :func:`fit_zipf_exponent` recovers ``s`` from observed access
counts by least squares on the log-log rank-frequency curve, which is how
the paper's figure presents it (popularity rank vs frequency on log axes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ports.rng import RngStream


class ZipfSampler:
    """Draw item indices 0..n-1 with P(rank k) proportional to (k+1)**-s.

    Unlike ``numpy.random.zipf`` (unbounded support), this sampler is over
    a finite catalog, matching a real file population.  Sampling uses the
    inverse-CDF over precomputed cumulative weights, O(log n) per draw.
    """

    def __init__(self, n_items: int, s: float, rng: RngStream) -> None:
        if n_items <= 0:
            raise ValueError(f"n_items must be positive, got {n_items}")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        self.n_items = n_items
        self.s = s
        self._rng = rng
        weights = np.arange(1, n_items + 1, dtype=np.float64) ** (-s)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self, count: int = 1) -> np.ndarray:
        """Draw ``count`` ranks (0-based; 0 is the most popular item)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        u = self._rng.rng.random(count)
        return np.searchsorted(self._cdf, u, side="left")


@dataclass(frozen=True, slots=True)
class ZipfFit:
    """Result of a rank-frequency exponent fit."""

    s: float
    r_squared: float
    n_ranks: int


def fit_zipf_exponent(
    counts: np.ndarray | list[int], *, min_count: int = 1
) -> ZipfFit:
    """Fit ``frequency ~ rank**-s`` by least squares in log-log space.

    Args:
        counts: access counts per item (any order; ranked internally).
        min_count: ignore items with fewer accesses (the noisy tail).

    Returns the fitted exponent ``s`` (positive for a decaying law) and the
    goodness of fit on the log-log line.
    """
    ranked = np.sort(np.asarray(counts, dtype=np.float64))[::-1]
    ranked = ranked[ranked >= min_count]
    if ranked.size < 2:
        raise ValueError(
            f"need at least 2 items with count >= {min_count}, got {ranked.size}"
        )
    log_rank = np.log(np.arange(1, ranked.size + 1, dtype=np.float64))
    log_freq = np.log(ranked)
    slope, intercept = np.polyfit(log_rank, log_freq, deg=1)
    predicted = slope * log_rank + intercept
    residual = float(np.sum((log_freq - predicted) ** 2))
    total = float(np.sum((log_freq - log_freq.mean()) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return ZipfFit(s=float(-slope), r_squared=r_squared, n_ranks=int(ranked.size))
