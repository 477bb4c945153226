"""Hierarchical quota management for multi-tenancy (Section 5.2).

Quotas attach to scopes (global / schema / table / partition, or any custom
hierarchy).  The verification walk starts at the finest level and ascends to
the global scope; a put is compliant only if *every* level on the chain
stays within its quota.

Two deliberate paper-faithful behaviours:

1. **Oversubscription**: the collective quota of a table's partitions may
   exceed the table's own quota (the initial design forbade this and "hindered
   efficient resource sharing"); each level is only checked against its own
   limit.
2. **Two eviction strategies on violation** (implemented by
   :meth:`QuotaManager.plan_eviction`):
   partition-level eviction when a partition exceeds its own quota, and
   table-level *random eviction across partitions* when the table total
   exceeds the table quota -- randomization shares the pain when one
   partition dwarfs the others.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metastore import PageMetaStore
from repro.core.page import PageInfo
from repro.core.scope import CacheScope
from repro.ports.rng import RngStream


@dataclass(frozen=True, slots=True)
class QuotaViolation:
    """One level of the scope chain that a put would push over its quota."""

    scope: CacheScope
    quota_bytes: int
    used_bytes: int
    incoming_bytes: int

    @property
    def overflow_bytes(self) -> int:
        """Bytes that must be reclaimed under ``scope`` for compliance."""
        return self.used_bytes + self.incoming_bytes - self.quota_bytes


class QuotaManager:
    """Scope-keyed byte quotas with hierarchical verification.

    Scopes without an explicit quota are unlimited (only configured levels
    are checked, mirroring production where platform owners set quotas on a
    handful of tables).
    """

    def __init__(self, quotas: dict[str, int] | None = None) -> None:
        self._quotas: dict[str, int] = {}
        for dotted, limit in (quotas or {}).items():
            self.set_quota(CacheScope.parse(dotted), limit)

    def set_quota(self, scope: CacheScope, limit_bytes: int) -> None:
        if limit_bytes <= 0:
            raise ValueError(f"quota must be positive, got {limit_bytes}")
        self._quotas[str(scope)] = limit_bytes

    def clear_quota(self, scope: CacheScope) -> None:
        self._quotas.pop(str(scope), None)

    def quota_of(self, scope: CacheScope) -> int | None:
        return self._quotas.get(str(scope))

    def __len__(self) -> int:
        return len(self._quotas)

    # -- verification --------------------------------------------------------

    def check(
        self, scope: CacheScope, incoming_bytes: int, metastore: PageMetaStore
    ) -> list[QuotaViolation]:
        """Walk the scope chain finest-first; collect every violated level.

        An empty list means the put is quota-compliant at all levels.
        """
        violations: list[QuotaViolation] = []
        # finest -> global (Section 5.2); with no quota set, no walk at all
        levels = zip(scope.ancestors(), scope.chain_keys) if self._quotas else ()
        for level, key in levels:
            limit = self._quotas.get(key)
            if limit is None:
                continue
            used = metastore.bytes_in_scope(level)
            if used + incoming_bytes > limit:
                violations.append(
                    QuotaViolation(
                        scope=level,
                        quota_bytes=limit,
                        used_bytes=used,
                        incoming_bytes=incoming_bytes,
                    )
                )
        return violations

    def fits_eventually(self, scope: CacheScope, incoming_bytes: int) -> bool:
        """False if the page can never fit (larger than some level's quota)."""
        for key in scope.chain_keys if self._quotas else ():
            limit = self._quotas.get(key)
            if limit is not None and incoming_bytes > limit:
                return False
        return True

    # -- eviction planning -----------------------------------------------------

    def plan_eviction(
        self,
        violation: QuotaViolation,
        metastore: PageMetaStore,
        rng: RngStream,
    ) -> list[PageInfo]:
        """Pick pages to evict to cure one violation (paper's two strategies).

        - If the violated scope has no configured child quotas *below* it in
          the populated tree (typical for a partition), evict within that
          scope, least-recently-used first (partition-level eviction).
        - Otherwise (typical for a table whose partitions are fighting),
          evict by repeatedly choosing a *random* populated child scope and
          reclaiming its LRU page (table-level sharing and eviction).

        Returns page metadata in eviction order totalling at least
        ``violation.overflow_bytes`` (or everything under the scope if the
        demand exceeds the population).
        """
        needed = violation.overflow_bytes
        if needed <= 0:
            return []
        children = metastore.child_scope_usage(violation.scope)
        if not children:
            return self._evict_lru_within(violation.scope, needed, metastore)
        return self._evict_random_across_children(
            violation.scope, children, needed, metastore, rng
        )

    def _evict_lru_within(
        self, scope: CacheScope, needed: int, metastore: PageMetaStore
    ) -> list[PageInfo]:
        candidates = sorted(
            metastore.pages_in_scope(scope), key=lambda p: p.last_access
        )
        plan: list[PageInfo] = []
        freed = 0
        for info in candidates:
            if freed >= needed:
                break
            plan.append(info)
            freed += info.size
        return plan

    def _evict_random_across_children(
        self,
        scope: CacheScope,
        children: dict[str, int],
        needed: int,
        metastore: PageMetaStore,
        rng: RngStream,
    ) -> list[PageInfo]:
        # Pre-sort each child's pages by recency once; then round-robin
        # randomly across children, popping each child's LRU page.
        queues: dict[str, list[PageInfo]] = {}
        for child_key in children:
            pages = sorted(
                metastore.pages_in_scope(CacheScope.parse(child_key)),
                key=lambda p: p.last_access,
                reverse=True,  # pop() takes the least recent
            )
            if pages:
                queues[child_key] = pages
        plan: list[PageInfo] = []
        freed = 0
        keys = list(queues)
        while freed < needed and keys:
            pick = keys[int(rng.rng.integers(0, len(keys)))]
            queue = queues[pick]
            info = queue.pop()
            plan.append(info)
            freed += info.size
            if not queue:
                keys.remove(pick)
        return plan
