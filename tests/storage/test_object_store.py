"""Tests for the S3-like object store model."""

import pytest

from repro.errors import FileNotFoundInStorageError
from repro.ports.clock import SimClock
from repro.storage.object_store import ObjectStore, ObjectStoreProfile


class TestNamespace:
    def test_put_get(self):
        store = ObjectStore()
        store.put_object("a", b"hello")
        data, latency = store.get_range("a", 0, 5)
        assert data == b"hello"
        assert latency > 0
        assert store.object_length("a") == 5
        assert store.contains("a")

    def test_ranged_get(self):
        store = ObjectStore()
        store.put_object("a", b"hello world")
        data, __ = store.get_range("a", 6, 5)
        assert data == b"world"

    def test_range_past_end_truncates(self):
        store = ObjectStore()
        store.put_object("a", b"hello")
        data, __ = store.get_range("a", 3, 100)
        assert data == b"lo"

    def test_missing_raises(self):
        with pytest.raises(FileNotFoundInStorageError):
            ObjectStore().get_range("nope", 0, 1)
        with pytest.raises(FileNotFoundInStorageError):
            ObjectStore().object_length("nope")


class TestLatencyModel:
    def test_latency_formula(self):
        profile = ObjectStoreProfile(base_latency=0.03, bandwidth=100e6)
        store = ObjectStore(profile)
        store.put_object("a", b"x" * 1_000_000)
        __, latency = store.get_range("a", 0, 1_000_000)
        assert latency == pytest.approx(0.03 + 0.01)

    def test_counters(self):
        store = ObjectStore()
        store.put_object("a", b"x" * 100)
        store.get_range("a", 0, 100)
        store.get_range("a", 0, 50)
        assert store.request_count == 2
        assert store.bytes_served == 150

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_latency": -1},
            {"bandwidth": 0},
            {"max_requests_per_second": 0},
            {"burst": 0},
        ],
    )
    def test_invalid_profile_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ObjectStoreProfile(**kwargs)

    def test_presets(self):
        # the default envelope is the cloud object store's
        assert ObjectStoreProfile.s3_like() == ObjectStoreProfile()


class TestThrottling:
    def test_burst_then_throttle(self):
        clock = SimClock()
        profile = ObjectStoreProfile(
            base_latency=0.0, bandwidth=1e12,
            max_requests_per_second=10, burst=5,
        )
        store = ObjectStore(profile, clock)
        store.put_object("a", b"x")
        # burst of 5 passes untouched
        latencies = [store.get_range("a", 0, 1)[1] for __ in range(5)]
        assert all(lat == pytest.approx(0.0) for lat in latencies)
        # the 6th is delayed by the token refill time
        __, throttled = store.get_range("a", 0, 1)
        assert throttled > 0
        assert store.throttled_requests == 1

    def test_tokens_refill_over_time(self):
        clock = SimClock()
        profile = ObjectStoreProfile(
            base_latency=0.0, bandwidth=1e12,
            max_requests_per_second=10, burst=1,
        )
        store = ObjectStore(profile, clock)
        store.put_object("a", b"x")
        store.get_range("a", 0, 1)  # drains the single token
        clock.advance(1.0)  # refills 10 tokens, capped at burst=1
        __, latency = store.get_range("a", 0, 1)
        assert latency == pytest.approx(0.0)
