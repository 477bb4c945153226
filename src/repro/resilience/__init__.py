"""Resilience layer: retries, circuit breakers, hedged reads, chaos injection.

The paper's Section 8 ("fault tolerance is hard") and the Section 7 lessons
(node timeouts, at most two cache replicas with remote fallback) are about
surviving failures.  This package makes degraded-mode behaviour a
first-class, testable property of every remote-read path:

- :mod:`~repro.resilience.policy` -- exponential backoff with deterministic
  jitter and per-attempt deadlines;
- :mod:`~repro.resilience.breaker` -- sliding-window circuit breakers with
  per-target state;
- :mod:`~repro.resilience.hedge` -- hedged reads fired after a latency
  percentile threshold (the "lazy data movement" companion for
  slow-but-alive nodes);
- :mod:`~repro.resilience.health` -- per-node health feeding the Presto
  soft-affinity scheduler and the coordinator's split failover;
- :mod:`~repro.resilience.injector` -- cluster-level chaos: crash/revive
  nodes, delay/fail/corrupt remote requests, partition nodes from the ring;
- :mod:`~repro.resilience.source` -- a ``DataSource`` wrapper applying
  retry + breaker + hedging to any remote source.

Everything runs on the sim clock and named RNG streams, so two runs with
the same seed produce identical retry/hedge/breaker event sequences.
"""

from repro.resilience.breaker import BreakerBoard, BreakerState, CircuitBreaker
from repro.resilience.health import NodeHealthTracker
from repro.resilience.hedge import HedgePolicy
from repro.resilience.injector import ChaosInjector, RemoteFaultState
from repro.resilience.policy import RetryPolicy
from repro.resilience.source import ResilientDataSource

__all__ = [
    "BreakerBoard",
    "BreakerState",
    "ChaosInjector",
    "CircuitBreaker",
    "HedgePolicy",
    "NodeHealthTracker",
    "RemoteFaultState",
    "ResilientDataSource",
    "RetryPolicy",
]
