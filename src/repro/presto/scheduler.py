"""Split scheduling: soft-affinity with busy fallback (Section 6.1.2).

The soft-affinity scheduler hashes the split's *file* onto the worker ring
so all splits of one file land on the same worker with best effort
(Figure 8).  The fallback ladder when the preferred node is busy:

1. the primary ring candidate, if it has capacity;
2. the secondary ring candidate (the next distinct node clockwise);
3. otherwise the least-burdened worker in the cluster, which is told to
   **bypass the cache** and read remote directly -- a temporary loss of
   affinity, not an error.

Busy-ness compares a worker's queued splits against ``max_splits_per_node``
(the coordinator gauges workload by comparing *max-splits-per-node* with
*max-pending-splits-per-task*).

:class:`RandomScheduler` is the conventional baseline the paper replaced:
even load, terrible cache affinity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import current_tracer
from repro.presto.hashring import ConsistentHashRing
from repro.presto.split import Split
from repro.resilience.health import NodeHealthTracker
from repro.ports.rng import RngStream


@dataclass(frozen=True, slots=True)
class SchedulerDecision:
    """Where one split goes and how.

    ``probes`` counts the candidate nodes whose occupancy had to be checked
    before placement -- the "latency in locating an unoccupied cache node"
    that Section 7 says grows with the replica count.
    """

    worker: str
    affinity: bool
    bypass_cache: bool
    probes: int = 1


class SoftAffinityScheduler:
    """Consistent-hash placement with a bounded-load fallback ladder.

    ``probe_latency`` is the per-candidate occupancy-check cost the
    coordinator charges on top of execution; with many replicas and hot
    files it is what erodes the benefit of extra replicas (Section 7).
    """

    def __init__(
        self,
        ring: ConsistentHashRing,
        *,
        max_replicas: int = 2,
        max_splits_per_node: int = 100,
        probe_latency: float = 0.0,
        health: NodeHealthTracker | None = None,
    ) -> None:
        if max_splits_per_node <= 0:
            raise ValueError(
                f"max_splits_per_node must be positive, got {max_splits_per_node}"
            )
        if probe_latency < 0:
            raise ValueError(f"probe_latency must be >= 0, got {probe_latency}")
        self.ring = ring
        self.max_replicas = max_replicas
        self.max_splits_per_node = max_splits_per_node
        self.probe_latency = probe_latency
        self.health = health
        self.affinity_assignments = 0
        self.fallback_assignments = 0
        self.health_skips = 0

    def assign(self, split: Split, load: dict[str, int]) -> SchedulerDecision:
        """Place one split given current per-worker queued-split counts.

        ``load`` maps every live worker to its pending split count; the
        caller increments the chosen worker's count afterwards (the
        scheduler is stateless across calls except for counters).
        """
        if not load:
            raise ValueError("no workers available")
        probes = 0
        for candidate in self.ring.candidates(split.file_id, self.max_replicas):
            probes += 1
            if self.health is not None and not self.health.is_available(candidate):
                # open breaker: skip without waiting for a timeout (the
                # whole point of feeding health into placement)
                self.health_skips += 1
                continue
            if candidate in load and load[candidate] < self.max_splits_per_node:
                self.affinity_assignments += 1
                decision = SchedulerDecision(
                    worker=candidate, affinity=True, bypass_cache=False,
                    probes=probes,
                )
                self._trace(split, decision)
                return decision
        # Temporary inability to maintain soft-affinity: least-burdened
        # worker, cache bypassed (Section 6.1.2's final fallback).
        healthy = (
            [w for w in load if self.health is None or self.health.is_available(w)]
            or list(load)
        )
        least = min(healthy, key=lambda w: (load[w], w))
        self.fallback_assignments += 1
        decision = SchedulerDecision(
            worker=least, affinity=False, bypass_cache=True, probes=probes + 1
        )
        self._trace(split, decision)
        return decision

    @staticmethod
    def _trace(split: Split, decision: SchedulerDecision) -> None:
        tracer = current_tracer()
        if not tracer.enabled:
            return
        tracer.current().event(
            "schedule",
            file_id=split.file_id,
            worker=decision.worker,
            affinity=decision.affinity,
            bypass_cache=decision.bypass_cache,
            probes=decision.probes,
        )


class RandomScheduler:
    """The conventional baseline: uniform random placement.

    "The scheduler's primary objective was to evenly distribute tasks by
    randomly assigning splits to workers.  This approach, however, proved
    to be inefficient for caching" -- every worker ends up caching a little
    of everything, and eviction churn destroys the hit rate.
    """

    def __init__(self, rng: RngStream) -> None:
        self._rng = rng

    def assign(self, split: Split, load: dict[str, int]) -> SchedulerDecision:
        if not load:
            raise ValueError("no workers available")
        workers = sorted(load)
        pick = workers[int(self._rng.rng.integers(0, len(workers)))]
        return SchedulerDecision(worker=pick, affinity=False, bypass_cache=False)
