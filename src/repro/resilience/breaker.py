"""Sliding-window circuit breakers with per-target state.

A breaker watches the recent outcomes of calls to one target (a cache
worker, a DataNode, the object store).  When the failure ratio over the
window crosses the threshold it *opens*: further calls are rejected
instantly instead of timing out against a dead node -- the detection the
paper's node-timeout lesson (Section 7) relies on.  After ``reset_timeout``
the breaker turns *half-open* and admits a bounded number of probe calls;
one success closes it, one failure re-opens it.

Every transition is observable: trips/rejections/probes go to the metrics
registry, and an optional shared event log records ``(time, target,
transition)`` tuples so tests can assert two same-seed runs produce
identical breaker event sequences.
"""

from __future__ import annotations

import enum
from collections import deque

from repro.core.metrics import MetricsRegistry
from repro.ports.clock import Clock, SimClock


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-ratio breaker over a sliding time window.

    Args:
        name: target this breaker guards (label for metrics/events).
        clock: time source (virtual in simulations).
        window_seconds: how far back outcomes count toward the ratio.
        failure_threshold: open when ``failures / calls`` in the window
            reaches this, provided at least ``min_volume`` calls were seen.
        min_volume: minimum windowed calls before the ratio is trusted.
        reset_timeout: seconds the breaker stays open before probing.
        half_open_probes: probe calls admitted while half-open.
        metrics: counter sink (``breaker_trips`` / ``breaker_rejections`` /
            ``breaker_probes``).
        event_log: optional shared list receiving ``(now, name, event)``.
    """

    def __init__(
        self,
        name: str = "target",
        *,
        clock: Clock | None = None,
        window_seconds: float = 60.0,
        failure_threshold: float = 0.5,
        min_volume: int = 5,
        reset_timeout: float = 30.0,
        half_open_probes: int = 1,
        metrics: MetricsRegistry | None = None,
        event_log: list | None = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_volume < 1:
            raise ValueError(f"min_volume must be >= 1, got {min_volume}")
        if reset_timeout < 0:
            raise ValueError(f"reset_timeout must be >= 0, got {reset_timeout}")
        if half_open_probes < 1:
            raise ValueError(f"half_open_probes must be >= 1, got {half_open_probes}")
        self.name = name
        self.clock = clock if clock is not None else SimClock()
        self.window_seconds = window_seconds
        self.failure_threshold = failure_threshold
        self.min_volume = min_volume
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self.metrics = metrics if metrics is not None else MetricsRegistry(name)
        self.event_log = event_log
        self._events: deque[tuple[float, bool]] = deque()
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._probes_used = 0
        self.trips = 0

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state; lazily moves OPEN -> HALF_OPEN once the reset
        timeout has elapsed (read-only view, consumes no probe)."""
        self._maybe_half_open()
        return self._state

    @property
    def available(self) -> bool:
        """Non-consuming view: would a call currently be admitted?"""
        state = self.state
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN:
            return self._probes_used < self.half_open_probes
        return False

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self.clock.now() - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._probes_used = 0
            self._log("half_open")

    def failure_ratio(self) -> float:
        self._prune(self.clock.now())
        if not self._events:
            return 0.0
        failures = sum(1 for __, ok in self._events if not ok)
        return failures / len(self._events)

    # -- call-site protocol --------------------------------------------------

    def allow(self) -> bool:
        """Admit or reject one call (consumes a probe while half-open)."""
        self._maybe_half_open()
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.HALF_OPEN:
            if self._probes_used < self.half_open_probes:
                self._probes_used += 1
                self.metrics.counter("breaker_probes").inc()
                self._log("probe")
                return True
        self.metrics.counter("breaker_rejections").inc()
        return False

    def record_success(self) -> None:
        now = self.clock.now()
        self._events.append((now, True))
        self._prune(now)
        if self._state is BreakerState.HALF_OPEN:
            self._close()

    def record_failure(self) -> None:
        now = self.clock.now()
        self._events.append((now, False))
        self._prune(now)
        if self._state is BreakerState.HALF_OPEN:
            self._trip(now)
            return
        if self._state is BreakerState.CLOSED and len(self._events) >= self.min_volume:
            failures = sum(1 for __, ok in self._events if not ok)
            if failures / len(self._events) >= self.failure_threshold:
                self._trip(now)

    # -- transitions ---------------------------------------------------------

    def _trip(self, now: float) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = now
        self._probes_used = 0
        self.trips += 1
        self.metrics.counter("breaker_trips").inc()
        self._log("trip")

    def _close(self) -> None:
        self._state = BreakerState.CLOSED
        self._events.clear()
        self._probes_used = 0
        self._log("close")

    def _prune(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def _log(self, event: str) -> None:
        if self.event_log is not None:
            self.event_log.append((self.clock.now(), self.name, event))

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name!r}, state={self.state.value})"


class BreakerBoard:
    """A registry of per-target breakers sharing configuration and sinks.

    The DFS client and the health tracker key breakers by node name
    through one board, so a trip observed on the read
    path is immediately visible to the scheduler.
    """

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        **breaker_kwargs,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry("breakers")
        self.events: list[tuple[float, str, str]] = []
        self._breaker_kwargs = breaker_kwargs
        self._breakers: dict[str, CircuitBreaker] = {}

    def for_target(self, name: str) -> CircuitBreaker:
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name,
                clock=self.clock,
                metrics=self.metrics,
                event_log=self.events,
                **self._breaker_kwargs,
            )
            self._breakers[name] = breaker
        return breaker

    def __contains__(self, name: str) -> bool:
        return name in self._breakers

    def __len__(self) -> int:
        return len(self._breakers)

    def states(self) -> dict[str, str]:
        return {name: b.state.value for name, b in sorted(self._breakers.items())}

    def open_targets(self) -> set[str]:
        return {
            name
            for name, breaker in self._breakers.items()
            if breaker.state is BreakerState.OPEN
        }

    def total_trips(self) -> int:
        return sum(b.trips for b in self._breakers.values())
