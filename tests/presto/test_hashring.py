"""Tests for consistent hashing with lazy data movement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.presto.hashring import ConsistentHashRing
from repro.ports.clock import SimClock


def make_ring(n=4, **kwargs) -> ConsistentHashRing:
    ring = ConsistentHashRing(**kwargs)
    for i in range(n):
        ring.add_node(f"worker-{i}")
    return ring


class TestMembership:
    def test_add_remove(self):
        ring = make_ring(3)
        assert len(ring) == 3
        ring.remove_node("worker-0")
        assert len(ring) == 2
        assert "worker-0" not in ring.nodes
        ring.remove_node("worker-0")  # idempotent
        assert len(ring) == 2

    def test_rejoin_is_noop_for_positions(self):
        ring = make_ring(2)
        primary_before = ring.primary("some-file")
        ring.add_node("worker-0")  # already present
        assert ring.primary("some-file") == primary_before

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(virtual_nodes=0)
        with pytest.raises(ValueError):
            ConsistentHashRing(offline_timeout=-1)

    def test_empty_ring(self):
        ring = ConsistentHashRing()
        assert ring.primary("f") is None
        assert ring.candidates("f") == []


class TestLookup:
    def test_deterministic(self):
        ring = make_ring()
        assert ring.primary("file-a") == ring.primary("file-a")

    def test_candidates_distinct(self):
        ring = make_ring(4)
        candidates = ring.candidates("file-a", max_replicas=3)
        assert len(candidates) == 3
        assert len(set(candidates)) == 3

    def test_replica_cap_respects_cluster_size(self):
        ring = make_ring(2)
        assert len(ring.candidates("f", max_replicas=5)) == 2

    def test_bad_replica_count(self):
        with pytest.raises(ValueError):
            make_ring().candidates("f", max_replicas=0)

    def test_minimal_disruption_on_node_loss(self):
        """Consistent hashing property: removing one of 8 nodes remaps only
        a minority of keys."""
        ring = make_ring(8)
        keys = [f"file-{i}" for i in range(500)]
        before = {k: ring.primary(k) for k in keys}
        ring.remove_node("worker-3")
        moved = sum(
            1 for k in keys if before[k] != "worker-3" and ring.primary(k) != before[k]
        )
        assert moved == 0  # keys on surviving nodes do not move
        orphans = [k for k in keys if before[k] == "worker-3"]
        for k in orphans:
            assert ring.primary(k) != "worker-3"

    def test_reasonable_balance(self):
        ring = make_ring(4, virtual_nodes=128)
        counts = {f"worker-{i}": 0 for i in range(4)}
        for i in range(4000):
            counts[ring.primary(f"file-{i}")] += 1
        for count in counts.values():
            assert 0.5 * 1000 < count < 1.7 * 1000


class TestLazyDataMovement:
    def test_offline_node_skipped_but_seat_kept(self):
        ring = make_ring(4)
        keys = [f"file-{i}" for i in range(200)]
        before = {k: ring.primary(k) for k in keys}
        victims = [k for k in keys if before[k] == "worker-1"]
        assert victims  # sanity
        ring.mark_offline("worker-1", now=100.0)
        assert "worker-1" not in ring.online_nodes
        assert "worker-1" in ring.nodes  # seat kept
        for k in victims:
            assert ring.primary(k) != "worker-1"  # traffic falls through

    def test_return_within_timeout_restores_mapping(self):
        """No data movement if the node comes back in time."""
        ring = make_ring(4, offline_timeout=600.0)
        before = {f"file-{i}": ring.primary(f"file-{i}") for i in range(200)}
        ring.mark_offline("worker-1", now=0.0)
        ring.mark_online("worker-1")
        after = {k: ring.primary(k) for k in before}
        assert after == before

    def test_eviction_after_timeout(self):
        ring = make_ring(4, offline_timeout=600.0)
        ring.mark_offline("worker-1", now=0.0)
        assert ring.evict_expired(now=500.0) == []
        assert ring.evict_expired(now=600.0) == ["worker-1"]
        assert "worker-1" not in ring.nodes

    def test_mark_offline_keeps_first_timestamp(self):
        ring = make_ring(2, offline_timeout=100.0)
        ring.mark_offline("worker-0", now=0.0)
        ring.mark_offline("worker-0", now=99.0)  # later mark must not reset
        assert ring.evict_expired(now=100.0) == ["worker-0"]

    def test_online_nodes_view(self):
        ring = make_ring(3)
        ring.mark_offline("worker-2", now=0.0)
        assert ring.online_nodes == {"worker-0", "worker-1"}


@given(keys=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=50))
def test_candidates_always_online_and_distinct(keys):
    ring = make_ring(5)
    ring.mark_offline("worker-0", now=0.0)
    for key in keys:
        candidates = ring.candidates(key, max_replicas=3)
        assert len(candidates) == len(set(candidates))
        assert "worker-0" not in candidates
        assert all(c in ring.online_nodes for c in candidates)


class TestOfflineTimeoutEdges:
    """Edge cases around the offline-timeout window (chaos scenarios)."""

    def test_exact_timeout_boundary(self):
        """Eviction is inclusive at exactly ``offline_timeout`` seconds --
        and exclusive one tick before."""
        ring = make_ring(3, offline_timeout=600.0)
        ring.mark_offline("worker-0", now=100.0)
        assert ring.evict_expired(now=699.999) == []
        assert "worker-0" in ring.nodes
        assert ring.evict_expired(now=700.0) == ["worker-0"]
        assert "worker-0" not in ring.nodes

    def test_zero_timeout_evicts_immediately(self):
        ring = make_ring(2, offline_timeout=0.0)
        ring.mark_offline("worker-1", now=50.0)
        assert ring.evict_expired(now=50.0) == ["worker-1"]

    def test_two_nodes_down_simultaneously(self):
        """Both down: lookups fall through to survivors; each node expires
        on its own schedule."""
        ring = make_ring(4, offline_timeout=600.0)
        ring.mark_offline("worker-0", now=0.0)
        ring.mark_offline("worker-1", now=100.0)
        for n in range(50):
            candidates = ring.candidates(f"file-{n}", 2)
            assert candidates
            assert set(candidates) <= {"worker-2", "worker-3"}
        # worker-0's window elapses first
        assert ring.evict_expired(now=600.0) == ["worker-0"]
        assert "worker-1" in ring.nodes
        assert ring.evict_expired(now=700.0) == ["worker-1"]

    def test_all_nodes_down_yields_no_candidates(self):
        ring = make_ring(2)
        ring.mark_offline("worker-0", now=0.0)
        ring.mark_offline("worker-1", now=0.0)
        assert ring.candidates("file-x", 2) == []
        assert ring.primary("file-x") is None

    def test_reregistration_after_eviction(self):
        """A node that rejoins after permanent eviction serves again and
        regains its original key mapping (hash positions are name-derived,
        so the seat layout is identical)."""
        ring = make_ring(4, offline_timeout=100.0)
        before = {f"file-{n}": ring.primary(f"file-{n}") for n in range(100)}
        ring.mark_offline("worker-2", now=0.0)
        assert ring.evict_expired(now=100.0) == ["worker-2"]
        assert "worker-2" not in ring.nodes
        ring.add_node("worker-2")
        assert "worker-2" in ring.online_nodes
        after = {k: ring.primary(k) for k in before}
        assert after == before

    def test_rejoin_while_offline_clears_mark(self):
        """add_node on a currently-offline member acts as mark_online."""
        ring = make_ring(3, offline_timeout=600.0)
        ring.mark_offline("worker-1", now=0.0)
        ring.add_node("worker-1")
        assert "worker-1" in ring.online_nodes
        assert ring.evict_expired(now=10_000.0) == []


class TestClockInjection:
    """The wall-clock audit: offline bookkeeping reads an injected sim
    clock, and without one an explicit ``now`` stays mandatory so wall
    time can never leak in silently."""

    def test_injected_clock_resolves_now(self):
        clock = SimClock()
        ring = make_ring(3, offline_timeout=100.0, clock=clock)
        ring.mark_offline("worker-0")  # no explicit now
        clock.advance(99.0)
        assert ring.evict_expired() == []
        clock.advance(1.0)
        assert ring.evict_expired() == ["worker-0"]

    def test_no_clock_requires_explicit_now(self):
        ring = make_ring(2, offline_timeout=100.0)
        with pytest.raises(ValueError):
            ring.mark_offline("worker-0")
        with pytest.raises(ValueError):
            ring.evict_expired()
        # the explicit-now forms still work
        ring.mark_offline("worker-0", now=0.0)
        assert ring.evict_expired(now=50.0) == []

    def test_explicit_now_overrides_clock(self):
        clock = SimClock()
        ring = make_ring(2, offline_timeout=100.0, clock=clock)
        ring.mark_offline("worker-0", now=500.0)
        clock.advance(1000.0)  # clock says 1000, mark says offline at 500
        assert ring.evict_expired(now=599.0) == []
        assert ring.evict_expired(now=600.0) == ["worker-0"]

    def test_rejoin_within_timeout_moves_zero_keys(self):
        """The lazy-data-movement regression at ring level: a node back
        inside the window reclaims its exact key set."""
        clock = SimClock()
        ring = make_ring(4, offline_timeout=600.0, clock=clock)
        before = {f"file-{n}": ring.primary(f"file-{n}") for n in range(200)}
        ring.mark_offline("worker-1")
        clock.advance(599.0)
        assert ring.evict_expired() == []
        ring.mark_online("worker-1")
        after = {k: ring.primary(k) for k in before}
        assert after == before

    def test_seat_leaves_for_good_after_timeout(self):
        clock = SimClock()
        ring = make_ring(4, offline_timeout=600.0, clock=clock)
        displaced = {
            f"file-{n}"
            for n in range(200)
            if ring.primary(f"file-{n}") == "worker-1"
        }
        assert displaced
        ring.mark_offline("worker-1")
        clock.advance(600.0)
        assert ring.evict_expired() == ["worker-1"]
        assert "worker-1" not in ring.nodes
        # mark_online cannot resurrect an evicted seat
        ring.mark_online("worker-1")
        assert "worker-1" not in ring.nodes
        for key in displaced:
            assert ring.primary(key) != "worker-1"
