"""Tests for admission strategies: filters, BucketTimeRateLimit, shadow."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.admission import (
    AdmitAll,
    BucketTimeRateLimit,
    CacheFilter,
    FilterAdmissionPolicy,
    ShadowCache,
    parse_filter_rules,
)
from repro.core.scope import CacheScope

TABLE_BAR = CacheScope.for_table("schema_foo", "table_bar")


def part(name: str) -> CacheScope:
    return TABLE_BAR.child(name)


def windowed_totals(limiter: BucketTimeRateLimit, now: float) -> dict[str, int]:
    """Per-key accesses the limiter still counts at ``now``."""
    limiter._rotate(now)
    return limiter._totals


class TestTrivialPolicies:
    def test_admit_all(self):
        assert AdmitAll().admit("f", CacheScope.global_scope(), 0.0)


class TestParseRules:
    def test_table_rule(self):
        rules = parse_filter_rules(
            [{"table": "schema_foo.table_bar", "maxCachedPartitions": 100}]
        )
        assert rules[0].matches("schema_foo.table_bar")
        assert not rules[0].matches("schema_foo.table_baz")
        assert rules[0].max_cached_partitions == 100

    def test_table_name_is_escaped(self):
        rules = parse_filter_rules([{"table": "s.t"}])
        # the dot must be literal, not a regex wildcard, so "sxt" can't match
        assert not rules[0].matches("sxt")

    def test_pattern_rule(self):
        rules = parse_filter_rules([{"tablePattern": r"ads\..*"}])
        assert rules[0].matches("ads.clicks")
        assert not rules[0].matches("sales.orders")

    def test_deny_rule(self):
        rules = parse_filter_rules([{"table": "tmp.scratch", "admit": False}])
        assert not rules[0].admit

    def test_both_keys_rejected(self):
        with pytest.raises(ValueError):
            parse_filter_rules([{"table": "a.b", "tablePattern": ".*"}])

    def test_neither_key_rejected(self):
        with pytest.raises(ValueError):
            parse_filter_rules([{"maxCachedPartitions": 5}])

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            parse_filter_rules([{"table": "a.b", "maxCachedPartitions": 0}])


class TestCacheFilter:
    def test_paper_snippet_semantics(self):
        """The paper's example: table_bar capped at 100 cached partitions."""
        cache_filter = CacheFilter.from_json(
            [{"table": "schema_foo.table_bar", "maxCachedPartitions": 100}]
        )
        for n in range(100):
            assert cache_filter.admit(part(f"p{n}"))
        # partition 100 evicts the least-recently-seen admitted partition
        assert cache_filter.admit(part("p100"))
        assert len(cache_filter._admitted_partitions["schema_foo.table_bar"]) == 100

    def test_unmatched_table_uses_default(self):
        cache_filter = CacheFilter.from_json([{"table": "a.b"}])
        assert not cache_filter.admit(CacheScope.for_table("x", "y"))
        permissive = CacheFilter.from_json([{"table": "a.b"}], default_admit=True)
        assert permissive.admit(CacheScope.for_table("x", "y"))

    def test_deny_rule_wins_when_first(self):
        cache_filter = CacheFilter.from_json(
            [{"table": "tmp.scratch", "admit": False}, {"tablePattern": ".*"}]
        )
        assert not cache_filter.admit(CacheScope.for_table("tmp", "scratch"))
        assert cache_filter.admit(CacheScope.for_table("sales", "orders"))

    def test_table_level_access_admitted_without_cap(self):
        cache_filter = CacheFilter.from_json(
            [{"table": "schema_foo.table_bar", "maxCachedPartitions": 2}]
        )
        assert cache_filter.admit(TABLE_BAR)  # no partition component

    def test_partition_cap_lru_retirement(self):
        cache_filter = CacheFilter.from_json(
            [{"table": "schema_foo.table_bar", "maxCachedPartitions": 2}]
        )
        assert cache_filter.admit(part("a"))
        assert cache_filter.admit(part("b"))
        assert cache_filter.admit(part("a"))  # refresh a
        assert cache_filter.admit(part("c"))  # retires b
        admitted = cache_filter._admitted_partitions["schema_foo.table_bar"]
        assert list(admitted) == ["a", "c"]

    def test_shallow_scope_uses_default(self):
        cache_filter = CacheFilter.from_json([{"tablePattern": ".*"}])
        assert not cache_filter.admit(CacheScope.global_scope())

    def test_policy_adapter(self):
        policy = FilterAdmissionPolicy.from_json([{"tablePattern": ".*"}])
        assert policy.admit("f", TABLE_BAR, 0.0)


class TestBucketTimeRateLimit:
    def test_threshold_crossing(self):
        limiter = BucketTimeRateLimit(threshold=3, window_buckets=10)
        assert not limiter.record_and_check("b", 0.0)
        assert not limiter.record_and_check("b", 1.0)
        assert limiter.record_and_check("b", 2.0)

    def test_threshold_is_inclusive(self):
        limiter = BucketTimeRateLimit(threshold=1)
        assert limiter.record_and_check("b", 0.0)

    def test_window_expiry(self):
        limiter = BucketTimeRateLimit(threshold=2, window_buckets=2, bucket_seconds=60)
        limiter.record("b", 0.0)
        # two minutes later the first bucket is gone
        assert windowed_totals(limiter, 125.0).get("b", 0) == 0
        assert not limiter.record_and_check("b", 126.0)

    def test_counts_aggregate_across_buckets(self):
        limiter = BucketTimeRateLimit(threshold=15, window_buckets=10, bucket_seconds=60)
        # Figure 12's shape: accesses spread over several minute buckets
        for minute, count in [(0, 4), (1, 6), (2, 5)]:
            for i in range(count):
                limiter.record("b", minute * 60.0 + i)
        assert windowed_totals(limiter, 179.0)["b"] == 15 == limiter.threshold

    def test_keys_are_independent(self):
        limiter = BucketTimeRateLimit(threshold=2)
        limiter.record("a", 0.0)
        assert not limiter.record_and_check("b", 0.0)

    def test_tracked_keys_shrink_after_window(self):
        limiter = BucketTimeRateLimit(threshold=2, window_buckets=1, bucket_seconds=60)
        limiter.record("a", 0.0)
        limiter.record("b", 0.0)
        assert len(windowed_totals(limiter, 0.0)) == 2
        assert len(windowed_totals(limiter, 120.0)) == 0

    def test_admission_policy_protocol(self):
        limiter = BucketTimeRateLimit(threshold=2)
        scope = CacheScope.global_scope()
        assert not limiter.admit("f", scope, 0.0)
        assert limiter.admit("f", scope, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0},
            {"window_buckets": 0},
            {"bucket_seconds": 0.0},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BucketTimeRateLimit(**kwargs)

    @given(
        accesses=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.floats(min_value=0, max_value=3600, allow_nan=False),
            ),
            max_size=100,
        ),
        check_at=st.floats(min_value=0, max_value=7200, allow_nan=False),
    )
    def test_windowed_count_matches_brute_force(self, accesses, check_at):
        """Property: the incremental totals equal a from-scratch recount."""
        limiter = BucketTimeRateLimit(threshold=5, window_buckets=5, bucket_seconds=60)
        log: list[tuple[str, float]] = []
        for key, t in sorted(accesses, key=lambda pair: pair[1]):
            limiter.record(key, t)
            log.append((key, t))
        check_at = max(check_at, max((t for __, t in log), default=0.0))
        current_epoch = int(check_at // 60)
        oldest = current_epoch - 5 + 1
        for key in ("a", "b", "c"):
            expected = sum(
                1 for k, t in log if k == key and oldest <= int(t // 60) <= current_epoch
            )
            assert windowed_totals(limiter, check_at).get(key, 0) == expected


class TestShadowCache:
    def test_seen_before_within_the_window(self):
        shadow = ShadowCache(window_buckets=2, bucket_seconds=60)
        scope = CacheScope.global_scope()
        assert not shadow.admit("a", scope, 0.0)
        assert not shadow.admit("b", scope, 10.0)
        assert shadow.admit("a", scope, 20.0)
        assert shadow.admit("b", scope, 61.0)  # the previous bucket counts

    def test_window_expiry(self):
        shadow = ShadowCache(window_buckets=1, bucket_seconds=60)
        scope = CacheScope.global_scope()
        shadow.admit("a", scope, 0.0)
        assert not shadow.admit("a", scope, 120.0)

    def test_admission_protocol_seen_before(self):
        shadow = ShadowCache()
        scope = CacheScope.global_scope()
        assert not shadow.admit("f", scope, 0.0)
        assert shadow.admit("f", scope, 1.0)
