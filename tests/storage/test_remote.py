"""Tests for data sources (synthetic and object-store-backed)."""

import pytest

from repro.errors import FileNotFoundInStorageError
from repro.storage.object_store import ObjectStore
from repro.storage.remote import (
    DataSource,
    ObjectStoreDataSource,
    SyntheticDataSource,
)


class TestSyntheticDataSource:
    def test_registration_and_length(self):
        source = SyntheticDataSource()
        source.add_file("f", 1000)
        assert source.file_length("f") == 1000
        assert source.file_ids() == ["f"]

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundInStorageError):
            SyntheticDataSource().file_length("nope")

    def test_reads_are_deterministic(self):
        a = SyntheticDataSource()
        a.add_file("f", 10_000)
        b = SyntheticDataSource()
        b.add_file("f", 10_000)
        assert a.read("f", 123, 456).data == b.read("f", 123, 456).data

    def test_overlapping_ranges_consistent(self):
        """Property of content-addressed generation: overlapping reads agree."""
        source = SyntheticDataSource()
        source.add_file("f", 10_000)
        whole = source.read("f", 0, 10_000).data
        assert source.read("f", 100, 50).data == whole[100:150]
        assert source.read("f", 63, 130).data == whole[63:193]

    def test_different_files_differ(self):
        source = SyntheticDataSource()
        source.add_file("f", 1000)
        source.add_file("g", 1000)
        assert source.read("f", 0, 100).data != source.read("g", 0, 100).data

    def test_read_past_eof(self):
        source = SyntheticDataSource()
        source.add_file("f", 100)
        assert len(source.read("f", 90, 50).data) == 10
        assert source.read("f", 200, 10).data == b""

    def test_latency_model(self):
        source = SyntheticDataSource(base_latency=0.01, bandwidth=100e6)
        source.add_file("f", 10_000_000)
        result = source.read("f", 0, 10_000_000)
        assert result.latency == pytest.approx(0.01 + 0.1)

    def test_counters(self):
        source = SyntheticDataSource()
        source.add_file("f", 1000)
        source.read("f", 0, 100)
        source.read("f", 0, 200)
        assert source.request_count == 2
        assert source.bytes_served == 300

    def test_negative_args_rejected(self):
        source = SyntheticDataSource()
        source.add_file("f", 100)
        with pytest.raises(ValueError):
            source.read("f", -1, 10)
        with pytest.raises(ValueError):
            source.add_file("g", -1)

    def test_satisfies_protocol(self):
        assert isinstance(SyntheticDataSource(), DataSource)


class TestNullDataSource:
    def test_zero_filled_reads(self):
        from repro.storage.remote import NullDataSource

        source = NullDataSource()
        source.add_file("f", 100)
        result = source.read("f", 10, 20)
        assert result.data == b"\x00" * 20
        assert result.latency > 0
        assert source.request_count == 1
        assert source.bytes_served == 20

    def test_eof_truncation(self):
        from repro.storage.remote import NullDataSource

        source = NullDataSource()
        source.add_file("f", 100)
        assert len(source.read("f", 90, 50).data) == 10
        assert source.read("f", 200, 10).data == b""

    def test_missing_and_invalid(self):
        from repro.storage.remote import NullDataSource

        source = NullDataSource()
        with pytest.raises(FileNotFoundInStorageError):
            source.file_length("nope")
        source.add_file("f", 10)
        with pytest.raises(ValueError):
            source.read("f", -1, 5)
        with pytest.raises(ValueError):
            NullDataSource(base_latency=-1)

    def test_satisfies_protocol(self):
        from repro.storage.remote import NullDataSource

        assert isinstance(NullDataSource(), DataSource)

    @pytest.mark.parametrize(
        "offset, length, expected",
        [
            (0, 4096, 4096),      # a whole page
            (8192, 4096, 1808),   # the short last page
            (9000, 4096, 1000),   # past end-of-file: truncated
            (10_000, 10, 0),      # at end-of-file
            (20_000, 10, 0),      # beyond it
            (123, 0, 0),          # zero-length
        ],
    )
    def test_payload_contract(self, offset, length, expected):
        from repro.storage.remote import NullDataSource

        source = NullDataSource()
        source.add_file("f", 10_000)
        data = source.read("f", offset, length).data
        assert type(data) is bytes
        assert len(data) == expected
        assert data == bytes(expected)
        assert source.request_count == 1
        assert source.bytes_served == expected

    def test_one_shared_payload_per_size(self):
        from repro.storage.remote import NullDataSource

        source, other = NullDataSource(), NullDataSource()
        source.add_file("f", 1 << 20)
        other.add_file("g", 1 << 20)
        page = source.read("f", 0, 4096).data
        assert source.read("f", 4096, 4096).data is page
        assert other.read("g", 0, 4096).data is page

    def test_zero_cache_stays_bounded(self):
        from repro.storage.remote import ZERO_SIZES_KEPT, NullDataSource, zero_bytes

        source = NullDataSource()
        source.add_file("f", 20_000)
        for size in range(1, 10_001):
            assert len(source.read("f", 0, size).data) == size
        assert zero_bytes.cache_info().currsize <= ZERO_SIZES_KEPT
        assert source.request_count == 10_000
        assert source.bytes_served == 10_000 * 10_001 // 2


class TestObjectStoreDataSource:
    def test_roundtrip(self):
        store = ObjectStore()
        store.put_object("f", b"hello world")
        source = ObjectStoreDataSource(store)
        assert source.file_length("f") == 11
        result = source.read("f", 6, 5)
        assert result.data == b"world"
        assert result.latency > 0
        assert isinstance(source, DataSource)
        assert source.store is store
