"""Client-side routing for the distributed cache tier.

Encodes the Section 7 lessons directly:

- **consistent hashing with lazy data movement** -- workers that stop
  responding keep their ring seats for a timeout window; if they return in
  time their keys map straight back, avoiding churn;
- **at most two cache replicas** per key, walking the ring for the
  fallback candidate when the primary is offline or errors;
- **remote storage as the final fallback** -- "in cases where both
  replicas are unavailable ... the system defaults to retrieving data from
  remote storage."

On top of the seed behaviour, the client plugs into the resilience layer:

- a :class:`~repro.resilience.health.NodeHealthTracker` keeps a circuit
  breaker per worker, so a worker that keeps failing is *skipped* (no
  connection attempt, no timeout) until its breaker half-opens a probe;
- a :class:`~repro.resilience.hedge.HedgePolicy` launches a backup read on
  the secondary replica when the primary runs past the latency-percentile
  threshold (slow-but-alive nodes);
- every failover / fallback / degraded serve is counted in a
  :class:`~repro.core.metrics.MetricsRegistry` so chaos experiments can
  assert on the decision trail.
"""

from __future__ import annotations

from repro.core.cache_manager import CacheReadResult
from repro.core.metrics import MetricsRegistry
from repro.core.scope import CacheScope
from repro.distributed.worker import CacheWorker
from repro.obs.tracer import current_tracer
from repro.presto.hashring import ConsistentHashRing
from repro.resilience.health import NodeHealthTracker
from repro.resilience.hedge import HedgePolicy
from repro.ports.clock import Clock, SimClock
from repro.storage.remote import DataSource


class DistributedCacheClient:
    """Routes reads across cache workers with replica + remote fallback."""

    def __init__(
        self,
        workers: list[CacheWorker],
        source: DataSource,
        *,
        max_replicas: int = 2,
        offline_timeout: float = 600.0,
        clock: Clock | None = None,
        health: NodeHealthTracker | None = None,
        hedge: HedgePolicy | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not workers:
            raise ValueError("need at least one cache worker")
        if max_replicas <= 0:
            raise ValueError(f"max_replicas must be positive, got {max_replicas}")
        self.clock = clock if clock is not None else SimClock()
        self.source = source
        self.max_replicas = max_replicas
        self.health = health
        self.hedge = hedge
        self.metrics = metrics if metrics is not None else MetricsRegistry("tier-client")
        self._workers = {w.name: w for w in workers}
        self.ring = ConsistentHashRing(
            offline_timeout=offline_timeout, clock=self.clock
        )
        for worker in workers:
            self.ring.add_node(worker.name)
        self.reads = 0
        self.remote_fallbacks = 0
        self.failovers = 0

    def worker(self, name: str) -> CacheWorker:
        return self._workers[name]

    def read(
        self,
        file_id: str,
        offset: int,
        length: int,
        *,
        scope: CacheScope | None = None,
    ) -> CacheReadResult:
        """Read through the cache tier: primary -> secondary -> remote."""
        tracer = current_tracer()
        with tracer.span(
            "tier_read", actor="tier-client",
            file_id=file_id, offset=offset, length=length,
        ) as span:
            result = self._routed_read(file_id, offset, length, scope, span)
            span.annotate("latency", result.latency)
            self.metrics.histogram("tier_read_latency_seconds").observe(
                result.latency, exemplar=span.span_id or None
            )
            return result

    def _routed_read(
        self,
        file_id: str,
        offset: int,
        length: int,
        scope: CacheScope | None,
        span,
    ) -> CacheReadResult:
        self.reads += 1
        now = self.clock.now()
        self.ring.evict_expired(now)
        candidates = self.ring.candidates(file_id, self.max_replicas)
        for position, candidate in enumerate(candidates):
            worker = self._workers.get(candidate)
            if worker is None:
                continue
            breaker = (
                self.health.breaker_for(candidate) if self.health is not None else None
            )
            if breaker is not None and not breaker.allow():
                # open breaker: skip without attempting (no timeout charged)
                span.event("breaker_skip", worker=candidate)
                continue
            try:
                result = worker.serve_read(file_id, offset, length, scope=scope)
            except ConnectionError:
                # lazy data movement: keep the seat, skip for now
                self.ring.mark_offline(candidate, now)
                self.failovers += 1
                self.metrics.counter("failovers").inc()
                if self.health is not None:
                    self.health.record_failure(candidate)
                span.event("failover", worker=candidate)
                continue
            if self.health is not None:
                self.health.record_success(candidate)
            if position > 0:
                # served, but not by the primary: degraded-mode accounting
                self.metrics.counter("degraded_serves").inc()
            span.annotate("served_by", candidate)
            if self.hedge is not None:
                primary_latency = result.latency
                result.latency, hedged, hedge_won = self.hedge.apply(
                    primary_latency,
                    lambda: self._backup_read(
                        candidates, candidate, file_id, offset, length, scope
                    ),
                )
                if hedged:
                    # The effective latency replaced the primary's after its
                    # charges were recorded: flag the trace for proportional
                    # rescaling (see repro.obs.attribution).
                    span.event("hedge", won=hedge_won, primary=primary_latency)
                    span.annotate("hedged", True)
                    if result.latency != primary_latency:
                        span.annotate("rescale", True)
            return result
        # all replicas unavailable: remote storage fallback
        self.remote_fallbacks += 1
        self.metrics.counter("remote_fallbacks").inc()
        self.metrics.counter("degraded_serves").inc()
        span.event("remote_fallback")
        remote = self.source.read(file_id, offset, length)
        self._charge_remote(span, remote.latency)
        return CacheReadResult(
            data=remote.data,
            latency=remote.latency,
            page_misses=1,
            bytes_from_remote=len(remote.data),
        )

    def _charge_remote(self, span, remote_latency: float) -> None:
        backoff = getattr(self.source, "last_retry_backoff", 0.0)
        wait = getattr(self.source, "last_queue_wait", 0.0)
        span.charge("retry_backoff", backoff)
        span.charge("queueing", wait)
        span.charge("remote", remote_latency - backoff - wait)

    def _backup_read(
        self,
        candidates: list[str],
        primary: str,
        file_id: str,
        offset: int,
        length: int,
        scope: CacheScope | None,
    ) -> float:
        """Hedge backup: the next live replica's latency for the same read.

        Raises when no backup target exists (the hedge policy then lets the
        slow primary result stand).
        """
        for candidate in candidates:
            if candidate == primary:
                continue
            worker = self._workers.get(candidate)
            if worker is None or not worker.online:
                continue
            if self.health is not None and not self.health.is_available(candidate):
                continue
            tracer = current_tracer()
            # Speculative work: the hedge_attempt attr keeps this subtree
            # out of the serving path's latency attribution.
            with tracer.span(
                "hedge_attempt", actor="tier-client",
                hedge_attempt=True, worker=candidate,
            ):
                return worker.serve_read(
                    file_id, offset, length, scope=scope
                ).latency
        raise ConnectionError("no live backup replica to hedge against")

    def notify_recovered(self, name: str) -> None:
        """A worker came back within the timeout: its keys map straight
        back with no data movement."""
        worker = self._workers[name]
        worker.recover()
        self.ring.mark_online(name)

    def tier_hit_ratio(self) -> float:
        hits = sum(
            w.metrics.counter("get_hits").value for w in self._workers.values()
        )
        misses = sum(
            w.metrics.counter("get_misses").value for w in self._workers.values()
        )
        total = hits + misses
        return hits / total if total else 0.0

    def cached_bytes(self) -> int:
        return sum(w.cache.bytes_used for w in self._workers.values())
