"""Tests for eviction policies, including the tracking-consistency property."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.eviction import (
    ClockPolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    SlruPolicy,
    TwoQPolicy,
    make_eviction_policy,
)
from repro.core.page import PageId
from repro.ports.rng import RngStream

ALL_POLICIES = ["lru", "fifo", "random", "lfu", "clock", "2q", "slru"]


def page(n: int) -> PageId:
    return PageId(f"f{n}", 0)


class TestLru:
    def test_evicts_least_recent(self):
        policy = LruPolicy()
        for n in range(3):
            policy.on_put(page(n))
        policy.on_access(page(0))
        assert policy.victim() == page(1)

    def test_victim_does_not_mutate(self):
        policy = LruPolicy()
        policy.on_put(page(0))
        assert policy.victim() == page(0)
        assert policy.victim() == page(0)
        assert len(policy) == 1

    def test_access_unknown_is_noop(self):
        policy = LruPolicy()
        policy.on_access(page(9))
        assert policy.victim() is None


class TestFifo:
    def test_ignores_access(self):
        policy = FifoPolicy()
        for n in range(3):
            policy.on_put(page(n))
        policy.on_access(page(0))
        assert policy.victim() == page(0)

    def test_re_put_keeps_original_position(self):
        policy = FifoPolicy()
        policy.on_put(page(0))
        policy.on_put(page(1))
        policy.on_put(page(0))
        assert policy.victim() == page(0)


class TestRandom:
    def test_victim_is_tracked(self):
        policy = RandomPolicy(RngStream(1, "t"))
        pages = [page(n) for n in range(10)]
        for p in pages:
            policy.on_put(p)
        for __ in range(50):
            assert policy.victim() in pages

    def test_deterministic_with_seed(self):
        a = RandomPolicy(RngStream(7, "t"))
        b = RandomPolicy(RngStream(7, "t"))
        for n in range(10):
            a.on_put(page(n))
            b.on_put(page(n))
        assert [a.victim() for __ in range(5)] == [b.victim() for __ in range(5)]

    def test_swap_remove_correctness(self):
        policy = RandomPolicy(RngStream(1, "t"))
        for n in range(5):
            policy.on_put(page(n))
        policy.on_delete(page(2))
        policy.on_delete(page(0))
        assert len(policy) == 3
        for __ in range(30):
            assert policy.victim() in {page(1), page(3), page(4)}


class TestLfu:
    def test_evicts_least_frequent(self):
        policy = LfuPolicy()
        for n in range(3):
            policy.on_put(page(n))
        policy.on_access(page(0))
        policy.on_access(page(0))
        policy.on_access(page(2))
        assert policy.victim() == page(1)

    def test_lru_tiebreak_within_frequency(self):
        policy = LfuPolicy()
        policy.on_put(page(0))
        policy.on_put(page(1))
        assert policy.victim() == page(0)

    def test_re_put_counts_as_access(self):
        policy = LfuPolicy()
        policy.on_put(page(0))
        policy.on_put(page(1))
        policy.on_put(page(0))  # bumps page 0 to freq 2
        assert policy.victim() == page(1)

    def test_delete_min_freq_page(self):
        policy = LfuPolicy()
        policy.on_put(page(0))
        policy.on_put(page(1))
        policy.on_access(page(1))
        policy.on_delete(page(0))
        assert policy.victim() == page(1)


class TestClock:
    def test_second_chance(self):
        policy = ClockPolicy()
        for n in range(3):
            policy.on_put(page(n))
        policy.on_access(page(0))  # page 0 gets a second chance
        assert policy.victim() == page(1)

    def test_all_referenced_falls_back_to_sweep(self):
        policy = ClockPolicy()
        for n in range(3):
            policy.on_put(page(n))
        for n in range(3):
            policy.on_access(page(n))
        # sweep clears bits; first inserted becomes victim after one pass
        assert policy.victim() == page(0)


class TestTwoQ:
    def test_scan_resistance(self):
        """A one-pass scan must not evict the established hot set."""
        policy = TwoQPolicy(in_fraction=0.25)
        hot = [page(n) for n in range(4)]
        # cycle the hot set through probation -> ghost -> main
        for p in hot:
            policy.on_put(p)
        for __ in hot:
            policy.on_delete(policy.victim())
        for p in hot:
            policy.on_put(p)  # ghosts promote straight to Am
        # now a long scan of cold pages
        for n in range(100, 140):
            policy.on_put(page(n))
            victim = policy.victim()
            policy.on_delete(victim)
            # the scan only ever evicts probationary (scan) pages
            assert victim not in hot

    def test_probation_hit_does_not_promote(self):
        policy = TwoQPolicy()
        policy.on_put(page(0))
        policy.on_access(page(0))  # correlated reference
        policy.on_put(page(1))
        assert policy.victim() == page(0)  # still probationary FIFO head

    def test_ghost_promotion(self):
        policy = TwoQPolicy()
        policy.on_put(page(0))
        victim = policy.victim()
        policy.on_delete(victim)  # page 0 -> ghost
        policy.on_put(page(0))  # re-admitted: goes to Am
        policy.on_put(page(1))  # probationary
        assert policy.victim() == page(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoQPolicy(in_fraction=0.0)
        with pytest.raises(ValueError):
            TwoQPolicy(ghost_factor=0.0)


class TestSlru:
    def test_promotion_protects(self):
        policy = SlruPolicy()
        policy.on_put(page(0))
        policy.on_put(page(1))
        policy.on_access(page(0))  # promote 0 to protected
        assert policy.victim() == page(1)  # probation tail goes first

    def test_protected_overflow_demotes(self):
        policy = SlruPolicy(protected_fraction=0.5)
        for n in range(4):
            policy.on_put(page(n))
        for n in range(4):
            policy.on_access(page(n))  # all promoted; cap forces demotion
        assert len(policy) == 4
        victim = policy.victim()
        assert victim is not None

    def test_victim_from_protected_when_probation_empty(self):
        policy = SlruPolicy()
        policy.on_put(page(0))
        policy.on_access(page(0))
        assert policy.victim() == page(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlruPolicy(protected_fraction=1.0)


class TestFactory:
    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_make(self, name):
        policy = make_eviction_policy(name, RngStream(0, "t"))
        policy.on_put(page(0))
        assert policy.victim() == page(0)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_eviction_policy("optimal")


@pytest.mark.parametrize("name", ALL_POLICIES)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "access", "delete", "evict"]),
            st.integers(min_value=0, max_value=15),
        ),
        max_size=120,
    )
)
def test_policy_tracks_exactly_the_resident_set(name, ops):
    """Property: for every policy, the tracked set mirrors resident pages,
    victim() only nominates resident pages, and draining empties the policy."""
    policy = make_eviction_policy(name, RngStream(3, f"prop-{name}"))
    resident: set[PageId] = set()
    for op, n in ops:
        p = page(n)
        if op == "put":
            policy.on_put(p)
            resident.add(p)
        elif op == "access":
            policy.on_access(p)
        elif op == "delete":
            policy.on_delete(p)
            resident.discard(p)
        else:  # evict via nomination
            victim = policy.victim()
            if victim is None:
                assert not resident
            else:
                assert victim in resident
                policy.on_delete(victim)
                resident.discard(victim)
        assert len(policy) == len(resident)
    # Drain.
    while resident:
        victim = policy.victim()
        assert victim in resident
        policy.on_delete(victim)
        resident.discard(victim)
    assert policy.victim() is None
