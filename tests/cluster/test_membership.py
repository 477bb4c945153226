"""Tests for the cluster membership state machine and remap accounting."""

import pytest

from repro.cluster.membership import ClusterMembership, NodeState
from repro.ports.clock import SimClock

KEYS = [f"file-{i:03d}" for i in range(64)]


def build(n=4, *, offline_timeout=600.0):
    clock = SimClock()
    membership = ClusterMembership(offline_timeout=offline_timeout, clock=clock)
    for i in range(n):
        membership.join(f"w{i}")
    # track after the initial joins so remap accounting starts from the
    # steady-state owner map
    membership.track_keys(KEYS)
    return membership, clock


def owners(membership):
    return {key: membership.ring.primary(key) for key in KEYS}


class TestStateMachine:
    def test_join_is_online(self):
        membership, __ = build()
        assert membership.states()["w0"] == NodeState.ONLINE.value
        assert membership.online_nodes == {"w0", "w1", "w2", "w3"}

    def test_crash_restore_cycle(self):
        membership, __ = build()
        membership.crash("w1")
        assert membership.states()["w1"] == NodeState.OFFLINE.value
        assert "w1" not in membership.online_nodes
        # the seat survives while offline -- that is the lazy part
        assert "w1" in membership.ring.nodes
        membership.restore("w1")
        assert membership.states()["w1"] == NodeState.ONLINE.value
        assert "w1" in membership.online_nodes

    def test_leave_is_permanent(self):
        membership, __ = build()
        membership.leave("w2")
        assert membership.states()["w2"] == NodeState.LEFT.value
        assert "w2" not in membership.ring.nodes

    def test_expire_after_timeout(self):
        membership, clock = build(offline_timeout=300.0)
        membership.crash("w3")
        clock.advance(299.0)
        assert membership.expire() == []
        clock.advance(1.0)
        assert membership.expire() == ["w3"]
        assert membership.states()["w3"] == NodeState.LEFT.value
        assert "w3" not in membership.ring.nodes

    def test_restore_after_expiry_is_fresh_join(self):
        membership, clock = build(offline_timeout=100.0)
        membership.crash("w0")
        clock.advance(200.0)
        membership.expire()
        membership.restore("w0")
        assert membership.states()["w0"] == NodeState.ONLINE.value
        assert "w0" in membership.ring.nodes

    def test_states_view_sorted(self):
        membership, __ = build(n=3)
        membership.crash("w1")
        membership.leave("w2")
        assert membership.states() == {
            "w0": "online", "w1": "offline", "w2": "left",
        }


class TestAuditTrail:
    def test_events_timestamped_in_order(self):
        membership, clock = build(n=2)
        clock.advance(10.0)
        membership.crash("w0")
        clock.advance(5.0)
        membership.restore("w0")
        assert membership.events[-2:] == [
            (10.0, "crash", "w0"), (15.0, "restore", "w0"),
        ]

    def test_metrics_counters(self):
        membership, __ = build(n=2)
        membership.crash("w0")
        membership.restore("w0")
        assert membership.metrics.counter("membership_events").value == 4
        assert membership.metrics.counter("membership_crash").value == 1
        assert membership.metrics.counter("membership_restore").value == 1
        assert membership.metrics.gauge("cluster_online_nodes").value == 2


class TestRemapAccounting:
    def test_initial_joins_cost_nothing_once_tracked(self):
        membership, __ = build()
        assert membership.remapped_keys == 0

    def test_crash_remaps_for_availability(self):
        """While a node is offline its keys fall through to live nodes --
        availability remapping, reported so the rebalancer can warm."""
        membership, __ = build()
        moved = membership.crash("w0")
        assert moved
        assert all(old == "w0" for __, old, __new in moved)
        assert membership.remapped_keys == len(moved)

    def test_restore_within_timeout_restores_exact_owner_map(self):
        """The lazy-data-movement regression: a rejoin within the offline
        timeout puts every key back on its pre-crash owner."""
        membership, clock = build(offline_timeout=600.0)
        before = owners(membership)
        moved_out = membership.crash("w0")
        clock.advance(60.0)
        moved_back = membership.restore("w0")
        assert owners(membership) == before
        # the restore undoes exactly the crash's displacement
        assert {(k, new, old) for k, old, new in moved_out} == {
            (k, old, new) for k, old, new in moved_back
        }

    def test_leave_moves_keys_for_good(self):
        membership, __ = build()
        before = owners(membership)
        membership.leave("w1")
        after = owners(membership)
        changed = {k for k in KEYS if before[k] != after[k]}
        assert changed == {k for k in KEYS if before[k] == "w1"}
        # only displaced keys move: minimal disruption
        assert all(after[k] == before[k] for k in KEYS if k not in changed)

    def test_expire_confirms_crash_remap(self):
        """Keys already fell through at crash time, so expiry of the seat
        changes no owner (the fallthrough *is* the post-expiry map)."""
        membership, clock = build(offline_timeout=100.0)
        membership.crash("w2")
        after_crash = owners(membership)
        remapped_at_crash = membership.remapped_keys
        clock.advance(200.0)
        membership.expire()
        assert owners(membership) == after_crash
        assert membership.remapped_keys == remapped_at_crash


class TestTrackKeys:
    def test_untracked_population_reports_no_movement(self):
        clock = SimClock()
        membership = ClusterMembership(clock=clock)
        membership.join("a")
        membership.join("b")
        assert membership.crash("a") == []
        assert membership.remapped_keys == 0

    def test_track_keys_dedupes_and_sorts(self):
        membership, __ = build()
        membership.track_keys(["z", "a", "z", "m"])
        assert membership._tracked == ["a", "m", "z"]
