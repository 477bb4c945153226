"""Cluster-level chaos injection.

The seed repo could only inject faults into the *local* simulated SSD page
store (``FaultPlan``); this module extends fault injection to every remote
actor in the cluster:

- **crash/revive/restart** any registered node (cache workers, DataNodes,
  Presto workers, cached DataNodes) -- immediately, on an
  :class:`~repro.sim.kernel.Kernel` timer schedule, or probabilistically;
- **delay / fail / corrupt** remote requests through a
  :class:`RemoteFaultState` attached to an
  :class:`~repro.storage.object_store.ObjectStore` or a
  :class:`FaultyDataSource` wrapper around any ``DataSource``;
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
from repro.errors import RemoteCorruptionError, RemoteReadError
from repro.ports.clock import Clock, SimClock
from repro.sim.kernel import Kernel
from repro.ports.rng import RngStream
from repro.storage.remote import DataSource, ReadResult


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


def apply_remote_faults(
    state: RemoteFaultState | None,
    rng: RngStream,
    latency: float,
    *,
    target: str,
    metrics: MetricsRegistry | None = None,
) -> float:
    """Roll the fault dice for one remote request; returns adjusted latency.

    Raises :class:`RemoteReadError` / :class:`RemoteCorruptionError` on
    injected hard faults.  Draws happen only for armed fault types, so a
    zero-probability configuration consumes no randomness.
    """
    if state is None or not state.active:
        return latency
    if state.fail_probability > 0 and (
        float(rng.rng.random()) < state.fail_probability
    ):
        if metrics is not None:
            metrics.counter("chaos_remote_failures").inc()
        raise RemoteReadError(f"injected remote failure on {target}")
    if state.corrupt_probability > 0 and (
        float(rng.rng.random()) < state.corrupt_probability
    ):
        if metrics is not None:
            metrics.counter("chaos_remote_corruptions").inc()
        raise RemoteCorruptionError(f"injected corruption in transit on {target}")
    if state.delay_probability > 0 and (
        float(rng.rng.random()) < state.delay_probability
    ):
        if metrics is not None:
            metrics.counter("chaos_remote_delays").inc()
        return latency + state.delay_seconds
    return latency


class FaultyDataSource:
    """Wraps any ``DataSource`` with injectable delay/failure/corruption."""

    def __init__(
        self,
        inner: DataSource,
        rng: RngStream,
        *,
        faults: RemoteFaultState | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.inner = inner
        self.rng = rng
        self.faults = faults if faults is not None else RemoteFaultState()
        self.metrics = metrics

    def file_length(self, file_id: str) -> int:
        return self.inner.file_length(file_id)

    def read(self, file_id: str, offset: int, length: int) -> ReadResult:
        result = self.inner.read(file_id, offset, length)
        latency = apply_remote_faults(
            self.faults, self.rng, result.latency,
            target=file_id, metrics=self.metrics,
        )
        if latency == result.latency:
            return result
        return ReadResult(data=result.data, latency=latency)


class ChaosInjector:
    """Registry + orchestration of cluster-wide fault injection.

    Nodes register under a name and must expose ``fail()``/``recover()``
    (crash/revive) or ``restart()`` (process restart losing volatile
    state).  Faults fire immediately, on an event-loop schedule, or
    probabilistically per call; each one lands in :attr:`events` as
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

    @property
    def target_names(self) -> list[str]:
        return sorted(self._targets)

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

    def maybe_crash(self, name: str, probability: float) -> bool:
        """Crash ``name`` with the given probability (one rng draw)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if probability > 0 and float(self.rng.rng.random()) < probability:
            self.crash(name)
            return True
        return False

    # -- network faults ------------------------------------------------------

    def partition(self, name: str, ring) -> None:
        """Partition a node from the ring: peers stop routing to it while
        the node itself stays up (split-brain-lite)."""
        ring.mark_offline(name, self.clock.now())
        self._record("partition", name)

    def heal_partition(self, name: str, ring) -> None:
        ring.mark_online(name)
        self._record("heal_partition", name)

    # -- remote-request faults -----------------------------------------------

    def set_remote_faults(self, target: object, state: RemoteFaultState) -> None:
        """Arm probabilistic request faults on an ``ObjectStore`` (via
        ``set_chaos``) or a :class:`FaultyDataSource` (``faults``)."""
        if hasattr(target, "set_chaos"):
            rng = getattr(target, "chaos_rng", None)
            if rng is None:
                rng = self.rng.child(f"remote/{type(target).__name__}")
            target.set_chaos(state, rng)
        elif hasattr(target, "faults"):
            target.faults = state
        else:
            raise TypeError(
                f"{type(target).__name__} accepts no remote fault state"
            )
        self._record("remote_faults", type(target).__name__)

    def clear_remote_faults(self, target: object) -> None:
        self.set_remote_faults(target, RemoteFaultState())
