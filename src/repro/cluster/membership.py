"""Cluster membership: the one write path to the consistent-hash ring.

The paper's Section 7 "lazy data movement" lesson is a *membership policy*:
a node that stops responding keeps its ring seat for a timeout window so a
container restart costs nothing, while a node that stays dead eventually
loses the seat and its keys move on.  This module owns that policy.  Domain
code (coordinator, schedulers) never mutates the ring directly -- replint
rule CHN001 enforces it -- so every membership transition lands here, where
it is counted, timestamped on the virtual clock, and measured for key
movement.

State machine per node::

    (absent) --join--> ONLINE --crash--> OFFLINE --restore--> ONLINE
                          |                  |
                          | leave            | expire (offline_timeout)
                          v                  v
                        LEFT <---------------+

``restore`` within the timeout maps the node's keys straight back (zero
remapped keys -- the regression test for the satellite audit); ``expire``
and ``leave`` move keys permanently.
"""

from __future__ import annotations

import enum

from repro.core.metrics import MetricsRegistry
from repro.presto.hashring import ConsistentHashRing
from repro.ports.clock import Clock, SimClock


class NodeState(enum.Enum):
    """Lifecycle state of one cluster node."""

    ONLINE = "online"
    OFFLINE = "offline"
    LEFT = "left"


class ClusterMembership:
    """Owns the hash ring; every mutation is an audited membership event.

    Args:
        virtual_nodes / offline_timeout: forwarded to the ring.
        clock: virtual time source; membership events and offline
            bookkeeping are stamped with it.
        metrics: registry for membership counters; created if absent.

    Attributes:
        events: ``(time, action, node)`` tuples in occurrence order --
            the sanitizer-comparable audit trail.
        remapped_keys: total tracked keys whose primary owner changed
            across all mutations (the cost of data movement).
    """

    def __init__(
        self,
        *,
        virtual_nodes: int = 64,
        offline_timeout: float = 600.0,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.ring = ConsistentHashRing(
            virtual_nodes=virtual_nodes,
            offline_timeout=offline_timeout,
            clock=self.clock,
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            "membership"
        )
        self.events: list[tuple[float, str, str]] = []
        self.remapped_keys = 0
        self._states: dict[str, NodeState] = {}
        self._tracked: list[str] = []

    # -- key tracking --------------------------------------------------------

    def track_keys(self, keys) -> None:
        """Declare the key population whose movement is worth measuring.

        Typically the file ids of the working set.  Each mutation then
        reports how many of these keys changed primary owner -- zero for a
        within-timeout restore, the whole point of lazy data movement.
        """
        self._tracked = sorted(set(keys))

    def _owners(self) -> dict[str, str | None]:
        return {key: self.ring.primary(key) for key in self._tracked}

    # -- state queries -------------------------------------------------------

    def state_of(self, node: str) -> NodeState | None:
        return self._states.get(node)

    def states(self) -> dict[str, str]:
        """``node -> state value`` for every node ever seen, sorted."""
        return {
            node: state.value for node, state in sorted(self._states.items())
        }

    @property
    def online_nodes(self) -> set[str]:
        return self.ring.online_nodes

    # -- mutations -----------------------------------------------------------

    def _record(self, action: str, node: str,
                before: dict[str, str | None]) -> list[tuple[str, str | None, str | None]]:
        """Log one membership event; returns the keys that changed owner as
        ``(key, old_owner, new_owner)`` tuples."""
        now = self.clock.now()
        self.events.append((now, action, node))
        self.metrics.counter("membership_events").inc()
        self.metrics.counter(f"membership_{action}").inc()
        self.metrics.gauge("cluster_online_nodes").set(
            len(self.ring.online_nodes)
        )
        moved = [
            (key, before[key], after)
            for key, after in self._owners().items()
            if after != before[key]
        ]
        if moved:
            self.remapped_keys += len(moved)
            self.metrics.counter("remapped_keys").inc(len(moved))
        return moved

    def join(self, node: str) -> list[tuple[str, str | None, str | None]]:
        """A new node enters the ring (provisioning, autoscale-up)."""
        before = self._owners()
        self.ring.add_node(node)
        self._states[node] = NodeState.ONLINE
        return self._record("join", node, before)

    def leave(self, node: str) -> list[tuple[str, str | None, str | None]]:
        """Operator-initiated decommission: the seat goes away now."""
        before = self._owners()
        self.ring.remove_node(node)
        self._states[node] = NodeState.LEFT
        return self._record("leave", node, before)

    def crash(self, node: str) -> list[tuple[str, str | None, str | None]]:
        """The node stopped responding; its seat survives for the timeout.

        Keys *do* remap while it is offline (lookups fall through to the
        next live node) -- that is availability, not data movement: the
        seat is still there and a timely restore moves them back.
        """
        before = self._owners()
        self.ring.mark_offline(node)
        self._states[node] = NodeState.OFFLINE
        return self._record("crash", node, before)

    def restore(self, node: str) -> list[tuple[str, str | None, str | None]]:
        """The node came back; within the timeout this is free."""
        before = self._owners()
        if node in self.ring.nodes:
            self.ring.mark_online(node)
        else:
            # the seat expired while it was away: this is a fresh join
            self.ring.add_node(node)
        self._states[node] = NodeState.ONLINE
        return self._record("restore", node, before)

    def expire(self) -> list[str]:
        """Evict nodes offline longer than the timeout; returns them."""
        before = self._owners()
        expired = self.ring.evict_expired()
        for node in expired:
            self._states[node] = NodeState.LEFT
            self._record("expire", node, before)
            before = self._owners()
        return expired
