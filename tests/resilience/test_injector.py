"""Tests for cluster-level chaos injection."""

import pytest

from repro.errors import RemoteCorruptionError, RemoteReadError
from repro.presto.hashring import ConsistentHashRing
from repro.resilience import ChaosInjector, RemoteFaultState
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel
from repro.ports.rng import RngStream
from repro.storage.object_store import ObjectStore


class FakeNode:
    def __init__(self):
        self.online = True
        self.restarts = 0

    def fail(self):
        self.online = False

    def recover(self):
        self.online = True

    def restart(self):
        self.restarts += 1


def make_injector(seed=0):
    clock = SimClock()
    return clock, ChaosInjector(clock=clock, rng=RngStream(seed, "chaos"))


class TestLifecycleFaults:
    def test_crash_and_revive(self):
        clock, chaos = make_injector()
        node = FakeNode()
        chaos.register("n1", node)
        chaos.crash("n1")
        assert not node.online
        clock.advance(10.0)
        chaos.revive("n1")
        assert node.online
        assert chaos.events == [(0.0, "crash", "n1"), (10.0, "revive", "n1")]
        assert chaos.metrics.counter("chaos_faults_injected").value == 2

    def test_restart(self):
        __, chaos = make_injector()
        node = FakeNode()
        chaos.register("n1", node)
        chaos.restart("n1")
        assert node.restarts == 1

    def test_register_all_and_target_names(self):
        __, chaos = make_injector()
        nodes = {"b": FakeNode(), "a": FakeNode()}
        chaos.register_all(nodes)
        assert [chaos.target(name) for name in "ab"] == [nodes["a"], nodes["b"]]

    def test_schedule_crash_window(self):
        clock, chaos = make_injector()
        loop = Kernel(clock)
        node = FakeNode()
        chaos.register("n1", node)
        chaos.schedule_crash(loop, "n1", at=100.0, duration=50.0)
        loop.run_until(120.0)
        assert not node.online
        loop.run_until(200.0)
        assert node.online
        assert chaos.events == [(100.0, "crash", "n1"), (150.0, "revive", "n1")]

    def test_schedule_crash_rejects_bad_duration(self):
        clock, chaos = make_injector()
        with pytest.raises(ValueError):
            chaos.schedule_crash(Kernel(clock), "n1", at=1.0, duration=0.0)

    def test_partition_and_heal(self):
        __, chaos = make_injector()
        ring = ConsistentHashRing()
        ring.add_node("n1")
        ring.add_node("n2")
        chaos.partition("n1", ring)
        assert ring.online_nodes == {"n2"}
        assert ring.nodes == {"n1", "n2"}  # the seat stays
        ring.mark_online("n1")
        assert ring.online_nodes == {"n1", "n2"}


class TestRemoteFaultState:
    def test_validation(self):
        with pytest.raises(ValueError):
            RemoteFaultState(fail_probability=1.5)
        with pytest.raises(ValueError):
            RemoteFaultState(delay_seconds=-1.0)

    def test_active_flag(self):
        assert not RemoteFaultState().active
        assert RemoteFaultState(delay_probability=0.1).active


class TestObjectStoreChaos:
    def make_store(self):
        store = ObjectStore(clock=SimClock())
        store.put_object("obj", b"x" * 1024)
        return store

    def test_injected_failures(self):
        store = self.make_store()
        __, chaos = make_injector()
        chaos.set_remote_faults(store, RemoteFaultState(fail_probability=1.0))
        with pytest.raises(RemoteReadError):
            store.get_range("obj", 0, 10)
        assert store.chaos_failures == 1
        assert store.request_count == 1  # failed requests are still billed

    def test_injected_corruption(self):
        store = self.make_store()
        __, chaos = make_injector()
        chaos.set_remote_faults(store, RemoteFaultState(corrupt_probability=1.0))
        with pytest.raises(RemoteCorruptionError):
            store.get_range("obj", 0, 10)
        assert store.chaos_corruptions == 1

    def test_injected_delay_charges_latency(self):
        store = self.make_store()
        __, chaos = make_injector()
        baseline_store = self.make_store()
        __, clean_latency = baseline_store.get_range("obj", 0, 10)
        chaos.set_remote_faults(
            store, RemoteFaultState(delay_probability=1.0, delay_seconds=0.7)
        )
        __, latency = store.get_range("obj", 0, 10)
        assert latency == pytest.approx(clean_latency + 0.7)
        assert store.chaos_delays == 1

    def test_clear_remote_faults(self):
        store = self.make_store()
        __, chaos = make_injector()
        chaos.set_remote_faults(store, RemoteFaultState(fail_probability=1.0))
        chaos.set_remote_faults(store, RemoteFaultState())
        data, __ = store.get_range("obj", 0, 10)
        assert data == b"x" * 10

    def test_rearming_does_not_replay_rng(self):
        """Re-arming keeps the cached stream: the dice keep rolling forward
        instead of replaying the same sequence."""
        store = self.make_store()
        __, chaos = make_injector()
        chaos.set_remote_faults(store, RemoteFaultState(fail_probability=0.5))
        first = store.chaos_rng
        chaos.set_remote_faults(store, RemoteFaultState(fail_probability=0.5))
        assert store.chaos_rng is first

    def test_unsupported_target_raises(self):
        __, chaos = make_injector()
        with pytest.raises(TypeError):
            chaos.set_remote_faults(object(), RemoteFaultState())


class TestDeterminism:
    def test_same_seed_same_event_sequence(self):
        def run(seed):
            clock, chaos = make_injector(seed=seed)
            store = ObjectStore(clock=clock)
            store.put_object("obj", b"y" * 512)
            chaos.set_remote_faults(
                store,
                RemoteFaultState(fail_probability=0.3, delay_probability=0.3),
            )
            outcomes = []
            for n in range(30):
                clock.advance(1.0)
                try:
                    __, latency = store.get_range("obj", 0, 64)
                    outcomes.append(round(latency, 9))
                except RemoteReadError:
                    outcomes.append("fail")
            return outcomes, chaos.events

        # identical seeds give identical fault sequences; another seed differs
        a_out, a_events = run(11)
        b_out, b_events = run(11)
        c_out, __ = run(12)
        assert a_out == b_out
        assert a_events == b_events
        assert a_out != c_out
