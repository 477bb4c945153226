"""Tests for hierarchical quota management (Section 5.2)."""

import pytest

from repro.core.metastore import PageMetaStore
from repro.core.page import PageId, PageInfo
from repro.core.quota import QuotaManager
from repro.core.scope import CacheScope
from repro.ports.rng import RngStream

TABLE = CacheScope.for_table("s", "t")
PART_A = TABLE.child("a")
PART_B = TABLE.child("b")


def add_pages(metastore, scope, count, size=10, prefix="f", t0=0.0):
    for n in range(count):
        metastore.add(
            PageInfo(
                PageId(f"{prefix}-{scope.name}-{n}", 0),
                size=size,
                scope=scope,
                created_at=t0 + n,
                last_access=t0 + n,
            )
        )


class TestConfiguration:
    def test_set_and_get(self):
        quota = QuotaManager()
        quota.set_quota(TABLE, 100)
        assert quota._quotas.get(str(TABLE)) == 100
        assert quota._quotas.get(str(PART_A)) is None
        assert len(quota) == 1

    def test_dict_constructor(self):
        quota = QuotaManager({"s.t": 100, "global": 1000})
        assert quota._quotas.get(str(TABLE)) == 100
        assert quota._quotas.get(str(CacheScope.global_scope())) == 1000

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            QuotaManager().set_quota(TABLE, 0)


class TestCheck:
    def test_no_quotas_no_violations(self):
        assert QuotaManager().check(PART_A, 10, PageMetaStore()) == []

    def test_violation_reports_overflow(self):
        quota = QuotaManager({"s.t": 50})
        metastore = PageMetaStore()
        add_pages(metastore, PART_A, count=4, size=10)  # 40 used
        violations = quota.check(PART_A, 20, metastore)
        assert len(violations) == 1
        assert violations[0].scope == TABLE
        assert violations[0].overflow_bytes == 10

    def test_walk_is_finest_first(self):
        quota = QuotaManager({"s.t": 10, "s.t.a": 5})
        metastore = PageMetaStore()
        add_pages(metastore, PART_A, count=1, size=10)
        violations = quota.check(PART_A, 10, metastore)
        assert [str(v.scope) for v in violations] == ["global.s.t.a", "global.s.t"]

    def test_partitions_may_oversubscribe_table(self):
        """Two 800 GB partition quotas under a 1 TB table quota are legal;
        each level is checked independently (the paper's evolved design)."""
        quota = QuotaManager({"s.t": 1000, "s.t.a": 800, "s.t.b": 800})
        metastore = PageMetaStore()
        add_pages(metastore, PART_A, count=7, size=100)  # 700 in partition a
        # partition a stays under 800, table under 1000: compliant
        assert quota.check(PART_A, 100, metastore) == []
        # a put pushing partition a to 900 violates the partition quota only
        add_pages(metastore, PART_A, count=1, size=100, prefix="g")
        violations = quota.check(PART_A, 100, metastore)
        assert [str(v.scope) for v in violations] == ["global.s.t.a"]

    def test_fits_eventually(self):
        quota = QuotaManager({"s.t.a": 50})
        assert quota.fits_eventually(PART_A, 50)
        assert not quota.fits_eventually(PART_A, 51)
        assert quota.fits_eventually(PART_B, 10_000)


class TestEvictionPlanning:
    def test_partition_level_lru_eviction(self):
        """A violated partition evicts its own LRU pages (strategy 1)."""
        quota = QuotaManager({"s.t.a": 50})
        metastore = PageMetaStore()
        add_pages(metastore, PART_A, count=5, size=10)  # full
        violations = quota.check(PART_A, 20, metastore)
        plan = quota.plan_eviction(violations[0], metastore, RngStream(0, "q"))
        assert sum(p.size for p in plan) >= 20
        # least-recently-accessed pages go first
        assert [p.last_access for p in plan] == sorted(p.last_access for p in plan)
        assert all(p.scope == PART_A for p in plan)

    def test_table_level_random_eviction_across_partitions(self):
        """A violated table evicts randomly across partitions (strategy 2)."""
        quota = QuotaManager({"s.t": 100})
        metastore = PageMetaStore()
        add_pages(metastore, PART_A, count=8, size=10)
        add_pages(metastore, PART_B, count=2, size=10)
        violations = quota.check(PART_A, 40, metastore)
        plan = quota.plan_eviction(violations[0], metastore, RngStream(1, "q"))
        assert sum(p.size for p in plan) >= 40
        # randomization across partitions: both partitions contribute with
        # high probability over several seeds
        partitions = {p.scope.name for p in plan}
        if len(partitions) == 1:  # tolerate one unlucky seed, retry another
            plan2 = quota.plan_eviction(violations[0], metastore, RngStream(2, "q"))
            partitions |= {p.scope.name for p in plan2}
        assert partitions == {"a", "b"}

    def test_plan_handles_demand_exceeding_population(self):
        quota = QuotaManager({"s.t.a": 30})
        metastore = PageMetaStore()
        add_pages(metastore, PART_A, count=3, size=10)
        violations = quota.check(PART_A, 1000, metastore)
        plan = quota.plan_eviction(violations[0], metastore, RngStream(0, "q"))
        assert len(plan) == 3  # everything under the scope

    def test_no_overflow_no_plan(self):
        quota = QuotaManager({"s.t.a": 100})
        metastore = PageMetaStore()
        violation_free = quota.check(PART_A, 10, metastore)
        assert violation_free == []
