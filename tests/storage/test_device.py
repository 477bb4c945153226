"""Tests for the device model: service time outside a kernel process,
FIFO queueing inside one."""

import pytest

from repro.core.metrics import MetricsRegistry
from repro.ports.clock import SimClock
from repro.sim.kernel import Kernel
from repro.storage.device import DeviceProfile, StorageDevice
from tests.sim.replayed import device_read


def hdd(clock=None, **kwargs):
    profile = DeviceProfile(
        name="test-hdd",
        read_bandwidth=100e6,
        write_bandwidth=100e6,
        seek_latency=0.01,
        channels=1,
    )
    return StorageDevice(profile, clock if clock is not None else SimClock(), **kwargs)


def on_kernel(device):
    """``device`` bound to a fresh kernel on its clock."""
    kernel = Kernel(device.clock)
    device.attach_kernel(kernel)
    return kernel


def read_at(kernel, device, size, latencies, when=0.0):
    """Spawn a replayed read at ``when``; its measured latency is appended
    to ``latencies`` on completion."""

    def reader():
        latencies.append((yield from device_read(device, size)))

    kernel.spawn_at(when, reader())


class TestProfiles:
    def test_presets(self):
        assert DeviceProfile.hdd_high_density().channels == 1
        assert DeviceProfile.ssd_local().channels > 1
        assert (
            DeviceProfile.ssd_local().read_bandwidth
            > DeviceProfile.hdd_high_density().read_bandwidth
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_bandwidth": 0},
            {"write_bandwidth": -1},
            {"seek_latency": -0.1},
            {"channels": 0},
        ],
    )
    def test_invalid_profile_rejected(self, kwargs):
        base = dict(
            name="x", read_bandwidth=1e6, write_bandwidth=1e6,
            seek_latency=0.0, channels=1,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            DeviceProfile(**base)


class TestServiceTime:
    def test_idle_read_latency(self):
        device = hdd()
        latency = device.read(100_000_000)  # 1 second of transfer
        assert latency == pytest.approx(0.01 + 1.0)

    def test_write_uses_write_bandwidth(self):
        profile = DeviceProfile("x", read_bandwidth=100e6, write_bandwidth=50e6,
                                seek_latency=0.0)
        device = StorageDevice(profile, SimClock())
        assert device.write(50_000_000) == pytest.approx(1.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            hdd().read(-1)

    def test_stats_accumulate(self):
        device = hdd()
        device.read(1000)
        device.read(2000)
        device.write(500)
        assert device.stats.reads == 2
        assert device.stats.writes == 1
        assert device.stats.bytes_read == 3000
        assert device.stats.bytes_written == 500


    def test_reads_outside_a_kernel_do_not_queue(self):
        """Back-to-back reads issued outside a kernel process each cost
        their service time: no wait, no blocked request, no record."""
        for attached in (False, True):
            device = hdd()
            if attached:
                on_kernel(device)
            latencies = [device.read(100_000_000) for __ in range(5)]
            assert latencies == [pytest.approx(1.01)] * 5
            assert device.stats.reads == 5
            assert device.stats.blocked_requests == 0
            assert device.stats.total_wait == 0.0
            assert device.stats.records == []


class TestQueueing:
    """Queueing is lived by kernel processes: reads spawned at one instant."""

    def test_back_to_back_requests_queue(self):
        """Two large reads at t=0 on one channel: the second one waits."""
        device = hdd()
        kernel = on_kernel(device)
        latencies = []
        for __ in range(2):
            read_at(kernel, device, 100_000_000, latencies)
        kernel.run()
        first, second = latencies
        assert second == pytest.approx(first + 1.01)
        assert device.stats.blocked_requests == 1

    def test_requests_after_idle_gap_do_not_queue(self):
        device = hdd()
        kernel = on_kernel(device)
        latencies = []
        read_at(kernel, device, 100_000_000, latencies)  # finishes at ~1.01
        read_at(kernel, device, 1000, latencies, when=2.0)
        kernel.run()
        assert device.stats.blocked_requests == 0

    def test_multi_channel_parallelism(self):
        profile = DeviceProfile("ssd", read_bandwidth=100e6, write_bandwidth=100e6,
                                seek_latency=0.0, channels=4)
        device = StorageDevice(profile, SimClock())
        kernel = on_kernel(device)
        latencies = []
        for __ in range(5):
            read_at(kernel, device, 100_000_000, latencies)
        kernel.run()
        # four channels serve four reads in parallel; the fifth must wait
        assert latencies[:4] == [pytest.approx(1.0)] * 4
        assert latencies[4] == pytest.approx(2.0)
        assert device.stats.blocked_requests == 1

    def test_queue_depth(self):
        """Live occupancy (in service + waiting) is published as gauges."""
        metrics = MetricsRegistry("test")
        device = hdd(metrics=metrics)
        kernel = on_kernel(device)
        latencies = []
        for __ in range(2):
            read_at(kernel, device, 100_000_000, latencies)
        kernel.run_until(0.5)
        assert metrics.gauge("device_queue_depth").value == 2
        assert metrics.gauge("blocked_processes").value == 1
        kernel.run()
        assert metrics.gauge("device_queue_depth").value == 0
        assert metrics.gauge("blocked_processes").value == 0

    def test_utilization(self):
        """Busy time accrues from lived service only."""
        device = hdd()
        kernel = on_kernel(device)
        read_at(kernel, device, 100_000_000, [])  # ~1.01 s busy
        kernel.run_until(2.0)
        assert device.stats.busy_time / device.clock.now() == pytest.approx(
            1.01 / 2.0, rel=1e-3
        )

    def test_blocked_per_bucket(self):
        device = hdd()
        kernel = on_kernel(device)
        # minute 0: a burst that queues
        for __ in range(3):
            read_at(kernel, device, 100_000_000, [])
        # minute 2: idle device, no queueing
        read_at(kernel, device, 1000, [], when=120.0)
        kernel.run()
        assert device.blocked_per_bucket(60.0) == {0: 2}

    def test_reset_stats(self):
        device = hdd()
        device.read(100)
        device.reset_stats()
        assert device.stats.reads == 0
        assert device.stats.records == []

    def test_records_capture_wait_and_service(self):
        device = hdd()
        kernel = on_kernel(device)
        for __ in range(2):
            read_at(kernel, device, 100_000_000, [])
        kernel.run()
        first, second = device.stats.records
        assert first.wait == 0.0
        assert second.wait == pytest.approx(1.01)
        assert second.latency == pytest.approx(second.wait + second.service)
        assert second.arrival + second.latency == pytest.approx(2.02)

    def test_keep_records_false(self):
        profile = DeviceProfile("x", read_bandwidth=1e6, write_bandwidth=1e6,
                                seek_latency=0.0)
        device = StorageDevice(profile, SimClock(), keep_records=False)
        kernel = on_kernel(device)
        read_at(kernel, device, 100, [])
        kernel.run()
        assert device.stats.records == []
        assert device.stats.reads == 1
