"""Consistent hashing with node-timeout "lazy data movement" (Section 7).

The soft-affinity scheduler hashes each file onto a ring of worker nodes.
Two production lessons are encoded here:

- **Lazy data movement**: containerized deployments restart nodes all the
  time.  A node that goes offline keeps its ring positions for a timeout
  window; while offline, lookups *fall through* to the next live node, and
  if the node returns within the window its keys map straight back -- no
  cache-shuffling churn.  Only after the timeout do its positions leave the
  ring for good.
- **Bounded replicas**: a key resolves to at most ``max_replicas`` distinct
  candidate nodes (the paper limits cache replicas to two, with remote
  storage as the final fallback).
"""

from __future__ import annotations

import bisect
import zlib

from repro.ports.clock import Clock


def _hash(value: str) -> int:
    return zlib.crc32(value.encode("utf-8"))


class ConsistentHashRing:
    """A hash ring over named nodes with offline timeouts.

    Args:
        virtual_nodes: ring positions per physical node (smooths balance).
        offline_timeout: seconds an offline node retains its positions.
        clock: time source for the offline bookkeeping.  When supplied,
            :meth:`mark_offline` and :meth:`evict_expired` may omit their
            ``now`` argument and the ring reads the injected clock; without
            one, ``now`` stays mandatory so wall time can never leak in
            silently.
    """

    def __init__(
        self,
        *,
        virtual_nodes: int = 64,
        offline_timeout: float = 600.0,
        clock: Clock | None = None,
    ) -> None:
        if virtual_nodes <= 0:
            raise ValueError(f"virtual_nodes must be positive, got {virtual_nodes}")
        if offline_timeout < 0:
            raise ValueError(f"offline_timeout must be >= 0, got {offline_timeout}")
        self.virtual_nodes = virtual_nodes
        self.offline_timeout = offline_timeout
        self.clock = clock
        self._positions: list[int] = []
        self._owner_at: dict[int, str] = {}
        self._nodes: set[str] = set()
        self._offline_since: dict[str, float] = {}

    def _resolve_now(self, now: float | None) -> float:
        if now is not None:
            return now
        if self.clock is None:
            raise ValueError(
                "no clock injected: pass `now` explicitly or construct the "
                "ring with ConsistentHashRing(clock=...)"
            )
        return self.clock.now()

    # -- membership ----------------------------------------------------------

    def add_node(self, node: str) -> None:
        """Join (or rejoin) a node; rejoining clears its offline mark."""
        if node in self._nodes:
            self._offline_since.pop(node, None)
            return
        self._nodes.add(node)
        self._offline_since.pop(node, None)
        for v in range(self.virtual_nodes):
            position = _hash(f"{node}#{v}")
            # linear-probe hash collisions to keep owners unambiguous
            while position in self._owner_at:
                position = (position + 1) % (1 << 32)
            self._owner_at[position] = node
            bisect.insort(self._positions, position)

    def remove_node(self, node: str) -> None:
        """Leave immediately (operator-initiated decommission)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._offline_since.pop(node, None)
        dead = [p for p, owner in self._owner_at.items() if owner == node]
        for position in dead:
            del self._owner_at[position]
        dead_set = set(dead)
        self._positions = [p for p in self._positions if p not in dead_set]

    def mark_offline(self, node: str, now: float | None = None) -> None:
        """Node stopped responding at ``now``; keep its seat for the timeout."""
        if node in self._nodes:
            self._offline_since.setdefault(node, self._resolve_now(now))

    def mark_online(self, node: str) -> None:
        """Node came back; its keys map straight back (no data movement)."""
        self._offline_since.pop(node, None)

    def evict_expired(self, now: float | None = None) -> list[str]:
        """Permanently remove nodes offline longer than the timeout."""
        resolved = self._resolve_now(now)
        expired = [
            node
            for node, since in self._offline_since.items()
            if resolved - since >= self.offline_timeout
        ]
        for node in expired:
            self.remove_node(node)
        return expired

    def is_online(self, node: str) -> bool:
        return node in self._nodes and node not in self._offline_since

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    @property
    def online_nodes(self) -> set[str]:
        return {n for n in self._nodes if n not in self._offline_since}

    def __len__(self) -> int:
        return len(self._nodes)

    # -- lookups -----------------------------------------------------------------

    def candidates(self, key: str, max_replicas: int = 2) -> list[str]:
        """Up to ``max_replicas`` distinct *online* nodes for ``key``.

        Walks the ring clockwise from the key's hash, skipping offline
        nodes (they keep their positions -- that is the laziness) and
        duplicate owners.
        """
        if max_replicas <= 0:
            raise ValueError(f"max_replicas must be positive, got {max_replicas}")
        if not self._positions:
            return []
        start = bisect.bisect_left(self._positions, _hash(key))
        found: list[str] = []
        seen: set[str] = set()
        for step in range(len(self._positions)):
            position = self._positions[(start + step) % len(self._positions)]
            owner = self._owner_at[position]
            if owner in seen or owner in self._offline_since:
                continue
            seen.add(owner)
            found.append(owner)
            if len(found) >= max_replicas:
                break
        return found

    def primary(self, key: str) -> str | None:
        """The preferred node for ``key`` (first online candidate)."""
        candidates = self.candidates(key, max_replicas=1)
        return candidates[0] if candidates else None
