"""Churn schedules and the kernel process that applies them.

A churn scenario is a plain list of :class:`ChurnAction` values -- data,
not code -- applied by a :class:`ChurnDriver` process on the event kernel.
:func:`correlated_failure` builds the shape the churn soak measures: an
AZ/rack event takes a worker group down at once, optionally losing their
SSD contents (the cold-cache recovery case of the paper's Section 7
lessons).

The driver also ticks :meth:`ClusterLifecycle.expire_tick` on a bounded
cadence up to its horizon, so offline-timeout evictions happen in virtual
time without an unbounded periodic timer keeping the kernel from
quiescing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sim.kernel import Timeout

_KINDS = ("crash", "restart", "join", "decommission")


@dataclass(frozen=True, slots=True)
class ChurnAction:
    """One scheduled membership transition.

    Attributes:
        at: virtual time the action fires.
        kind: ``crash`` / ``restart`` / ``join`` / ``decommission``.
        node: target node name.
        lose_cache: for ``crash``, whether the SSD contents are lost too
            (disk replaced, container rescheduled without its volume).
    """

    at: float
    kind: str
    node: str
    lose_cache: bool = False

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"action time must be >= 0, got {self.at}")
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown churn kind {self.kind!r}; choose one of {_KINDS}"
            )


def correlated_failure(
    nodes,
    *,
    at: float,
    downtime: float = 120.0,
    lose_cache: bool = True,
) -> tuple[ChurnAction, ...]:
    """An AZ-style event: every node in the group crashes at ``at`` and
    restarts together after ``downtime`` (cold if ``lose_cache``)."""
    if downtime <= 0:
        raise ValueError(f"downtime must be positive, got {downtime}")
    actions: list[ChurnAction] = []
    for node in nodes:
        actions.append(ChurnAction(at=at, kind="crash", node=node,
                                   lose_cache=lose_cache))
        actions.append(ChurnAction(at=at + downtime, kind="restart", node=node))
    return tuple(actions)


class ChurnDriver:
    """Applies a churn schedule through a cluster lifecycle, in order.

    Args:
        lifecycle: the :class:`~repro.cluster.lifecycle.ClusterLifecycle`
            whose API performs the transitions.
        schedule: the actions; applied sorted by ``(at, node, kind)``.
        expire_interval: cadence of offline-timeout eviction ticks.
        horizon: virtual time the driver stops ticking at; defaults to the
            last action time plus one expire interval.
    """

    def __init__(
        self,
        lifecycle,
        schedule,
        *,
        expire_interval: float = 60.0,
        horizon: float | None = None,
    ) -> None:
        if expire_interval <= 0:
            raise ValueError(
                f"expire_interval must be positive, got {expire_interval}"
            )
        self.lifecycle = lifecycle
        self.schedule = tuple(
            sorted(schedule, key=lambda a: (a.at, a.node, a.kind))
        )
        self.expire_interval = expire_interval
        last = max((a.at for a in self.schedule), default=0.0)
        self.horizon = horizon if horizon is not None else last + expire_interval
        self.applied = 0

    def _apply(self, action: ChurnAction) -> None:
        if action.kind == "crash":
            self.lifecycle.crash(action.node, lose_cache=action.lose_cache)
        elif action.kind == "restart":
            self.lifecycle.restart(action.node)
        elif action.kind == "join":
            self.lifecycle.add_worker(action.node)
        else:
            self.lifecycle.decommission(action.node)
        self.applied += 1

    def proc(self):
        """The driver process: spawn with ``kernel.spawn(driver.proc())``.

        Bounded by construction -- it sleeps between scheduled actions and
        expire ticks and returns at the horizon, so the kernel can quiesce.
        """
        clock = self.lifecycle.kernel.clock
        pending = deque(self.schedule)
        next_expire = clock.now() + self.expire_interval
        while pending or next_expire <= self.horizon:
            if pending:
                next_at = min(pending[0].at, next_expire)
            else:
                next_at = next_expire
            delay = next_at - clock.now()
            if delay > 0:
                yield Timeout(delay)
            while pending and pending[0].at <= clock.now() + 1e-9:
                self._apply(pending.popleft())
            if clock.now() >= next_expire - 1e-9:
                self.lifecycle.expire_tick()
                next_expire += self.expire_interval
        return self.applied
