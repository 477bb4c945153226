"""Cluster-level chaos injection.

The seed repo could only inject faults into the *local* simulated SSD page
store (``FaultPlan``); this module extends fault injection to every remote
actor in the cluster:

- **crash/revive/restart** any registered node (cache workers, DataNodes,
  Presto workers, cached DataNodes) -- immediately or on an
  :class:`~repro.sim.kernel.Kernel` timer schedule;
- **delay / fail / corrupt** remote requests through a
  :class:`RemoteFaultState` attached to an
  :class:`~repro.storage.object_store.ObjectStore` (its ``set_chaos``);
- **partition** a node from a consistent-hash ring (reachable storage,
  unreachable peer).

All randomness comes from a named :class:`~repro.ports.rng.RngStream` and
every injected fault is appended to :attr:`ChaosInjector.events`, so a
chaos scenario is reproducible bit-for-bit and its event sequence can be
compared across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import MetricsRegistry
from repro.ports.clock import Clock, SimClock
from repro.sim.kernel import Kernel
from repro.ports.rng import RngStream


@dataclass(slots=True)
class RemoteFaultState:
    """Probabilistic fault knobs applied to remote requests.

    Attributes:
        fail_probability: request raises :class:`RemoteReadError`.
        corrupt_probability: request raises :class:`RemoteCorruptionError`
            (bytes flipped in transit, caught by transport checksums).
        delay_probability: request completes but pays ``delay_seconds``
            extra latency (brownout rather than blackout).
        delay_seconds: the extra latency charged to delayed requests.
    """

    fail_probability: float = 0.0
    corrupt_probability: float = 0.0
    delay_probability: float = 0.0
    delay_seconds: float = 0.2

    def __post_init__(self) -> None:
        for name in ("fail_probability", "corrupt_probability", "delay_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")

    @property
    def active(self) -> bool:
        return (
            self.fail_probability > 0
            or self.corrupt_probability > 0
            or self.delay_probability > 0
        )


class ChaosInjector:
    """Registry + orchestration of cluster-wide fault injection.

    Nodes register under a name and must expose ``fail()``/``recover()``
    (crash/revive) or ``restart()`` (process restart losing volatile
    state).  Faults fire immediately or on an event-loop schedule; each one
    lands in :attr:`events` as
    ``(virtual_time, action, target)``.
    """

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        rng: RngStream | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.rng = rng if rng is not None else RngStream(0, "chaos")
        self.metrics = metrics if metrics is not None else MetricsRegistry("chaos")
        self._targets: dict[str, object] = {}
        self.events: list[tuple[float, str, str]] = []

    # -- registry ------------------------------------------------------------

    def register(self, name: str, target: object) -> None:
        self._targets[name] = target

    def register_all(self, targets: dict[str, object]) -> None:
        for name, target in targets.items():
            self.register(name, target)

    def target(self, name: str) -> object:
        return self._targets[name]

    def _record(self, action: str, target: str) -> None:
        self.events.append((self.clock.now(), action, target))
        self.metrics.counter("chaos_faults_injected").inc()

    # -- node lifecycle faults -----------------------------------------------

    def crash(self, name: str) -> None:
        """Take a node down (container kill); state survives for revive."""
        self._targets[name].fail()
        self._record("crash", name)

    def revive(self, name: str) -> None:
        self._targets[name].recover()
        self._record("revive", name)

    def restart(self, name: str) -> None:
        """Process restart: the target loses its volatile state."""
        self._targets[name].restart()
        self._record("restart", name)

    def schedule_crash(
        self, loop: Kernel, name: str, at: float, duration: float
    ) -> None:
        """Crash ``name`` at virtual time ``at`` and revive it after
        ``duration`` seconds (a fault window)."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        loop.call_at(at, lambda: self.crash(name))
        loop.call_at(at + duration, lambda: self.revive(name))

    # -- network faults ------------------------------------------------------

    def partition(self, name: str, ring) -> None:
        """Partition a node from the ring: peers stop routing to it while
        the node itself stays up (split-brain-lite)."""
        ring.mark_offline(name, self.clock.now())
        self._record("partition", name)

    # -- remote-request faults -----------------------------------------------

    def set_remote_faults(self, target: object, state: RemoteFaultState) -> None:
        """Arm probabilistic request faults on an ``ObjectStore`` (its
        ``set_chaos``); an inert ``RemoteFaultState()`` disarms them."""
        if not hasattr(target, "set_chaos"):
            raise TypeError(
                f"{type(target).__name__} accepts no remote fault state"
            )
        rng = getattr(target, "chaos_rng", None)
        if rng is None:
            rng = self.rng.child(f"remote/{type(target).__name__}")
        target.set_chaos(state, rng)
        self._record("remote_faults", type(target).__name__)
