"""Per-node health tracking feeding schedulers and failover paths.

The tracker is a thin coordination layer over a shared
:class:`~repro.resilience.breaker.BreakerBoard`: the read path records
successes/failures per node, and placement logic (the Presto soft-affinity
scheduler and coordinator, the DFS client) asks ``is_available`` *before*
routing work -- so open-breaker nodes are skipped instead of timed out on,
the exact behaviour the paper's node-timeout lesson is after.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.metrics import MetricsRegistry
from repro.resilience.breaker import BreakerBoard, CircuitBreaker
from repro.ports.clock import Clock, SimClock


class NodeHealthTracker:
    """Cluster view of which nodes are currently worth sending work to."""

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        breakers: BreakerBoard | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry("health")
        self.breakers = (
            breakers
            if breakers is not None
            else BreakerBoard(clock=self.clock, metrics=self.metrics)
        )
        self._successes: dict[str, int] = defaultdict(int)
        self._failures: dict[str, int] = defaultdict(int)
        self._last_failure_at: dict[str, float] = {}

    # -- recording -----------------------------------------------------------

    def breaker_for(self, node: str) -> CircuitBreaker:
        return self.breakers.for_target(node)

    def record_success(self, node: str) -> None:
        self._successes[node] += 1
        self.breakers.for_target(node).record_success()

    def record_failure(self, node: str) -> None:
        self._failures[node] += 1
        self._last_failure_at[node] = self.clock.now()
        self.breakers.for_target(node).record_failure()

    # -- queries -------------------------------------------------------------

    def is_available(self, node: str) -> bool:
        """Non-consuming check used by placement logic.

        A node never seen by the tracker is presumed healthy (breakers are
        created lazily, on first recorded outcome or explicit lookup).
        """
        if node not in self.breakers:
            return True
        return self.breakers.for_target(node).available

    def snapshot(self) -> dict[str, dict]:
        """Per-node health summary for dashboards and tests."""
        nodes = (
            set(self._successes) | set(self._failures) | set(self.breakers.states())
        )
        return {
            node: {
                "state": (
                    self.breakers.for_target(node).state.value
                    if node in self.breakers
                    else "closed"
                ),
                "available": self.is_available(node),
                "successes": self._successes.get(node, 0),
                "failures": self._failures.get(node, 0),
                "last_failure_at": self._last_failure_at.get(node),
            }
            for node in sorted(nodes)
        }
