"""Metrics registry with error breakdowns and per-query aggregation.

Section 7 calls an aggregated metrics system "crucial for cache tuning and
debugging", and singles out error-related metrics -- error counts per
operation with breakdowns of concrete error types -- as the most useful for
root-causing.  Section 6.1.3 describes aggregating per-query runtime stats
into table-level insights.  This module provides:

- :class:`Counter`, :class:`Gauge`, :class:`Histogram` primitives,
- :class:`MetricsRegistry` -- the per-cache-instance registry, including
  ``record_error(operation, error)`` breakdowns.

Per-*query* runtime statistics live in :mod:`repro.presto.runtime_stats`,
which feeds table-level aggregates through this module's histograms.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.ports.rng import RngStream


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


class _ExemplarRing:
    """The last few ``(value, reference)`` pairs a metric was handed."""

    EXEMPLAR_SLOTS = 8

    __slots__ = ()

    def _record_exemplar(self, value: float, reference: str) -> None:
        if len(self._exemplars) < self.EXEMPLAR_SLOTS:
            self._exemplars.append((value, reference))
        else:
            self._exemplars[self._exemplar_seen % self.EXEMPLAR_SLOTS] = (
                value,
                reference,
            )
        self._exemplar_seen += 1

    def exemplars(self) -> list[tuple[float, str]]:
        """Recent ``(value, reference)`` pairs, newest-slot ring order."""
        return list(self._exemplars)


class Gauge(_ExemplarRing):
    """A value that can move in either direction (e.g. bytes cached).

    ``set`` optionally carries an *exemplar* (the active trace span id)
    linking the reading back to the trace that produced it; a small ring
    of recent ``(value, reference)`` pairs is retained so a spike in, say,
    ``device_queue_depth`` can be chased to the blocked read's trace.
    """

    __slots__ = ("value", "_exemplars", "_exemplar_seen")

    def __init__(self) -> None:
        self.value = 0.0
        self._exemplars: list[tuple[float, str]] = []
        self._exemplar_seen = 0

    def set(self, value: float, exemplar: str | None = None) -> None:
        self.value = value
        if exemplar is not None:
            self._record_exemplar(value, exemplar)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram(_ExemplarRing):
    """Observations with exact count/total/mean and bounded storage.

    Up to ``reservoir_cap`` observations are kept exactly; past the cap the
    histogram switches to a uniform reservoir seeded from a
    :class:`~repro.ports.rng.RngStream`, so memory stays bounded on
    arbitrarily long runs while every observation retains an equal chance
    of representation.  The reservoir counts skips (Li's Algorithm L): it
    draws random numbers per *kept* observation -- ``cap * ln(count / cap)``
    of those in all -- not per observation, a block at a time.
    ``count``/``total``/``mean`` are tracked exactly regardless of
    sampling; ``percentile`` answers from whatever is retained (exact below
    the cap, an unbiased estimate above it) using linear interpolation,
    matching ``numpy.percentile`` defaults.

    ``observe`` optionally carries an *exemplar* -- an opaque reference
    (the active trace span id) linking the metric back to a trace; a small
    ring of recent exemplars is retained.
    """

    DEFAULT_RESERVOIR = 65_536

    __slots__ = (
        "_values",
        "_count",
        "_total",
        "_cap",
        "_rng",
        "_keep_probability",
        "_next_kept",
        "_draws",
        "_exemplars",
        "_exemplar_seen",
    )

    def __init__(
        self,
        *,
        reservoir_cap: int = DEFAULT_RESERVOIR,
        rng: RngStream | None = None,
    ) -> None:
        if reservoir_cap <= 0:
            raise ValueError(f"reservoir_cap must be > 0, got {reservoir_cap}")
        self._values: list[float] = []
        self._count = 0
        self._total = 0.0
        self._cap = reservoir_cap
        self._rng = rng if rng is not None else RngStream(0, "metrics/reservoir")
        self._keep_probability = 1.0
        self._next_kept = 0  # the count at which the full reservoir next changes
        self._draws: list[float] = []
        self._exemplars: list[tuple[float, str]] = []
        self._exemplar_seen = 0

    def _uniforms(self, needed: int) -> list[float]:
        """At least ``needed`` draws from (0, 1] to pop; a scalar NumPy
        draw would cost ten times the rest of ``observe``."""
        if len(self._draws) < needed:
            self._draws = (1.0 - self._rng.rng.random(256)).tolist()
        return self._draws

    def _skip_ahead(self, w: float, draw: float) -> None:
        """The reservoir is the ``cap`` observations with the smallest of
        ``count`` uniform keys; a later one gets in with probability ``w``,
        the largest of those keys, so the gap to it is geometric."""
        self._keep_probability = w
        passed = int(math.log(draw) / math.log1p(-w)) if w < 1.0 else 0
        self._next_kept = self._count + passed + 1

    def observe(self, value: float, exemplar: str | None = None) -> None:
        if not math.isfinite(value):
            raise ValueError(f"observation must be finite, got {value}")
        self._count += 1
        self._total += value
        values, cap = self._values, self._cap
        if len(values) < cap:
            values.append(value)
            if len(values) == cap:  # full: start counting skips
                draws = self._uniforms(2)
                self._skip_ahead(draws.pop() ** (1.0 / cap), draws.pop())
        elif self._count >= self._next_kept:
            draws = self._uniforms(3)
            values[int((1.0 - draws.pop()) * cap)] = value
            # the largest kept key shrinks by the cap-th root of a uniform
            self._skip_ahead(
                self._keep_probability * draws.pop() ** (1.0 / cap), draws.pop()
            )
        if exemplar is not None:
            self._record_exemplar(value, exemplar)

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self._count:
            return 0.0
        return self._total / self._count

    @property
    def sampled(self) -> bool:
        """True once the reservoir has downsampled (count exceeded cap)."""
        return self._count > len(self._values)

    @property
    def reservoir_cap(self) -> int:
        return self._cap

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the retained observations."""
        if not self._values:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(np.asarray(self._values), q))

    def values(self) -> list[float]:
        return list(self._values)


@dataclass(slots=True)
class CacheStatsSnapshot:
    """A point-in-time summary of one cache's headline metrics."""

    hits: int
    misses: int
    hit_ratio: float
    bytes_from_cache: int
    bytes_from_remote: int
    puts: int
    put_rejections: int
    evictions: int
    errors: int


class MetricsRegistry:
    """Metrics for one cache instance.

    Well-known counters (created eagerly so snapshots are stable):

    ``get_hits`` / ``get_misses`` -- page-granularity hit/miss counts,
    ``bytes_read_cache`` / ``bytes_read_remote`` -- byte-granularity split,
    ``puts`` / ``put_rejected_admission`` / ``put_rejected_quota`` /
    ``put_rejected_space`` -- admission pipeline outcomes,
    ``evictions`` / ``evicted_bytes`` / ``ttl_evictions`` -- reclaim stats,
    ``timeout_fallbacks`` / ``corruption_evictions`` -- Section 8 paths,
    ``retries`` / ``retry_exhausted`` / ``hedged_requests`` / ``hedge_wins``
    / ``hedge_errors`` / ``breaker_trips`` / ``breaker_rejections`` / ``breaker_probes`` /
    ``failovers`` / ``remote_fallbacks`` / ``degraded_serves`` /
    ``chaos_faults_injected`` -- the resilience layer's decision trail
    (every retry/hedge/breaker decision is observable, per the Section 7
    error-metrics lesson).
    """

    _WELL_KNOWN = (
        "get_hits",
        "get_misses",
        "bytes_read_cache",
        "bytes_read_remote",
        "puts",
        "put_rejected_admission",
        "put_rejected_quota",
        "put_rejected_space",
        "evictions",
        "evicted_bytes",
        "ttl_evictions",
        "timeout_fallbacks",
        "corruption_evictions",
        "retries",
        "retry_exhausted",
        "hedged_requests",
        "hedge_wins",
        "hedge_errors",
        "breaker_trips",
        "breaker_rejections",
        "breaker_probes",
        "failovers",
        "remote_fallbacks",
        "degraded_serves",
        "chaos_faults_injected",
    )

    def __init__(self, name: str = "cache") -> None:
        self.name = name
        self._counters: dict[str, Counter] = {k: Counter() for k in self._WELL_KNOWN}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._errors: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # -- primitives ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            # deterministic per-(registry, metric) reservoir stream so
            # downsampling never perturbs (or is perturbed by) scenario rngs
            self._histograms[name] = Histogram(
                rng=RngStream(0, f"metrics/{self.name}/{name}")
            )
        return self._histograms[name]

    def record_error(self, operation: str, error: BaseException | str) -> None:
        """Count an error, broken down by operation and concrete type.

        The paper's experience: this breakdown is "extremely helpful to
        identify root causes in debugging" (Section 7).
        """
        error_type = error if isinstance(error, str) else type(error).__name__
        self._errors[operation][error_type] += 1

    def error_breakdown(self) -> dict[str, dict[str, int]]:
        """``{operation: {error_type: count}}``."""
        return {op: dict(types) for op, types in self._errors.items()}

    @property
    def total_errors(self) -> int:
        return sum(sum(types.values()) for types in self._errors.values())

    # -- headline stats -------------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        hits = self._counters["get_hits"].value
        misses = self._counters["get_misses"].value
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> CacheStatsSnapshot:
        c = self._counters
        return CacheStatsSnapshot(
            hits=c["get_hits"].value,
            misses=c["get_misses"].value,
            hit_ratio=self.hit_ratio,
            bytes_from_cache=c["bytes_read_cache"].value,
            bytes_from_remote=c["bytes_read_remote"].value,
            puts=c["puts"].value,
            put_rejections=(
                c["put_rejected_admission"].value
                + c["put_rejected_quota"].value
                + c["put_rejected_space"].value
            ),
            evictions=c["evictions"].value,
            errors=self.total_errors,
        )

    def counters(self) -> dict[str, int]:
        return {name: counter.value for name, counter in self._counters.items()}

    def gauge_values(self) -> dict[str, float]:
        return {name: gauge.value for name, gauge in self._gauges.items()}
