"""Tests for churn schedules and the driver process that applies them."""

import pytest

from repro.cluster.churn import ChurnAction, ChurnDriver, correlated_failure
from repro.sim.kernel import Kernel


class StubLifecycle:
    """Records transitions with the virtual time they were applied at."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = []
        self.expire_ticks = []

    def crash(self, node, *, lose_cache=False):
        self.calls.append((self.kernel.clock.now(), "crash", node, lose_cache))

    def restart(self, node):
        self.calls.append((self.kernel.clock.now(), "restart", node, None))

    def add_worker(self, name):
        self.calls.append((self.kernel.clock.now(), "join", name, None))

    def decommission(self, node):
        self.calls.append((self.kernel.clock.now(), "decommission", node, None))

    def expire_tick(self):
        self.expire_ticks.append(self.kernel.clock.now())
        return []


class TestChurnAction:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ChurnAction(at=-1.0, kind="crash", node="w0")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChurnAction(at=0.0, kind="reboot", node="w0")


class TestBuilders:
    def test_correlated_failure_hits_group_at_once(self):
        actions = correlated_failure(["a", "b", "c"], at=50.0, downtime=30.0)
        crashes = [a for a in actions if a.kind == "crash"]
        restarts = [a for a in actions if a.kind == "restart"]
        assert {a.at for a in crashes} == {50.0}
        assert {a.at for a in restarts} == {80.0}
        # an AZ event reschedules containers: SSD contents go with them
        assert all(a.lose_cache for a in crashes)

    def test_correlated_failure_validation(self):
        with pytest.raises(ValueError):
            correlated_failure(["a"], at=10.0, downtime=0.0)


class TestDriver:
    def test_applies_schedule_in_virtual_time_order(self):
        kernel = Kernel()
        lifecycle = StubLifecycle(kernel)
        # deliberately unsorted: the driver sorts by (at, node, kind)
        schedule = [
            ChurnAction(at=30.0, kind="restart", node="a"),
            ChurnAction(at=10.0, kind="crash", node="a", lose_cache=True),
            ChurnAction(at=20.0, kind="join", node="b"),
        ]
        driver = ChurnDriver(lifecycle, schedule, expire_interval=1000.0)
        kernel.spawn(driver.proc(), name="churn-driver")
        kernel.run_all()
        assert lifecycle.calls == [
            (10.0, "crash", "a", True),
            (20.0, "join", "b", None),
            (30.0, "restart", "a", None),
        ]
        assert driver.applied == 3

    def test_expire_ticks_up_to_horizon(self):
        kernel = Kernel()
        lifecycle = StubLifecycle(kernel)
        driver = ChurnDriver(
            lifecycle, [], expire_interval=25.0, horizon=100.0,
        )
        kernel.spawn(driver.proc(), name="churn-driver")
        kernel.run_all()
        assert lifecycle.expire_ticks == [25.0, 50.0, 75.0, 100.0]
        # bounded by construction: the kernel quiesced at the horizon
        assert kernel.clock.now() == 100.0

    def test_default_horizon_covers_last_action(self):
        kernel = Kernel()
        lifecycle = StubLifecycle(kernel)
        schedule = [ChurnAction(at=90.0, kind="crash", node="a")]
        driver = ChurnDriver(lifecycle, schedule, expire_interval=60.0)
        assert driver.horizon == 150.0
        kernel.spawn(driver.proc(), name="churn-driver")
        kernel.run_all()
        assert lifecycle.calls[0][:2] == (90.0, "crash")
        assert lifecycle.expire_ticks  # at least one eviction pass ran

    def test_expire_interval_validation(self):
        with pytest.raises(ValueError):
            ChurnDriver(StubLifecycle(Kernel()), [], expire_interval=0.0)

    def test_coincident_actions_apply_same_instant(self):
        kernel = Kernel()
        lifecycle = StubLifecycle(kernel)
        schedule = correlated_failure(["a", "b"], at=5.0, downtime=10.0)
        driver = ChurnDriver(lifecycle, schedule, expire_interval=100.0)
        kernel.spawn(driver.proc(), name="churn-driver")
        kernel.run_all()
        crash_times = {t for t, kind, *_ in lifecycle.calls if kind == "crash"}
        assert crash_times == {5.0}
