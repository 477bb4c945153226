"""The benchmark's own arithmetic: percentiles and segment summaries.

Kept free of ``repro`` imports so ``perfbench/tests`` can check it alone.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

MIN_BEYOND = 10
"""A percentile is reported only with at least this many samples beyond it."""


def supported_quantile(n_samples: int, q: float) -> float:
    """``q`` (0-100) lowered until ``MIN_BEYOND`` samples lie beyond it.

    With 1 000 samples p99 stands (10 beyond); with 99 samples the highest
    percentile the sample supports is p89.9, and that is what is reported.
    """
    if n_samples <= 0:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ceiling = 100.0 * (1.0 - MIN_BEYOND / n_samples)
    return max(min(q, ceiling), 0.0)


def percentile(samples: Sequence[float], q: float) -> tuple[float, float]:
    """``(value, effective_q)``: nearest-rank percentile under the
    at-least-ten-beyond rule of :func:`supported_quantile`."""
    effective = supported_quantile(len(samples), q)
    ordered = sorted(samples)
    rank = max(math.ceil(effective / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], effective


@dataclass(frozen=True, slots=True)
class Spread:
    """One metric over a run's segments; ``quartile`` is the reported value."""

    best: float
    quartile: float
    median: float
    worst: float
    n: int


def summarize(values: Sequence[float], *, better: str) -> Spread:
    """Host noise here is one-sided: a busy neighbour only ever slows a
    segment, for a fraction of a second or for half a minute.  The median
    therefore reads slow and moves with the share of slowed segments; the
    single best segment is an extreme value, and right after set-up the
    program can run faster than its steady state (``embed_zipf``'s first two
    segments do, by 10-15 %).  The reported value is the *better quartile*:
    the level a quarter of the segments beat.  Over ten seeds its spread was
    never the widest of the three on any workload.
    """
    if not values:
        raise ValueError("no segments")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    ordered = sorted(values, reverse=(better == "higher"))
    if len(ordered) == 1:
        quartile = ordered[0]
    else:
        cuts = statistics.quantiles(ordered, n=4, method="inclusive")
        quartile = cuts[2] if better == "higher" else cuts[0]
    return Spread(
        best=ordered[0],
        quartile=quartile,
        median=statistics.median(ordered),
        worst=ordered[-1],
        n=len(ordered),
    )
