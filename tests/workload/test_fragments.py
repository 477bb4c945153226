"""Tests for the fragmented-read distribution (Section 2.2 anchors)."""

import numpy as np
import pytest

from repro.ports.rng import RngStream
from repro.workload.fragments import KIB, MIB, FragmentedReadGenerator


class TestSizes:
    def test_paper_cdf_anchors(self):
        """>50% of reads below 10 KB; >=90% at or below ~1 MB."""
        generator = FragmentedReadGenerator(RngStream(1, "frag"))
        sizes = generator.sizes(100_000)
        assert (sizes <= 10 * KIB).mean() > 0.5
        assert (sizes <= 1 * MIB).mean() >= 0.85

    def test_bounds(self):
        generator = FragmentedReadGenerator(RngStream(1, "frag"))
        sizes = generator.sizes(10_000)
        assert sizes.min() >= 64
        assert sizes.max() <= 64 * MIB

    def test_deterministic(self):
        a = FragmentedReadGenerator(RngStream(3, "f")).sizes(100)
        b = FragmentedReadGenerator(RngStream(3, "f")).sizes(100)
        assert (a == b).all()

    def test_zero_count(self):
        assert FragmentedReadGenerator(RngStream(1, "f")).sizes(0).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            FragmentedReadGenerator(RngStream(1, "f")).sizes(-1)


class TestRequests:
    def test_requests_within_file(self):
        generator = FragmentedReadGenerator(RngStream(1, "frag"))
        requests = generator.requests(1000, ["a", "b"], file_length=1 * MIB)
        for request in requests:
            assert request.file_id in ("a", "b")
            assert request.offset >= 0
            assert request.offset + request.length <= 1 * MIB

    def test_popularity_weights(self):
        generator = FragmentedReadGenerator(RngStream(1, "frag"))
        requests = generator.requests(
            5000, ["hot", "cold"], file_length=1 * MIB,
            popularity=np.array([0.95, 0.05]),
        )
        hot = sum(1 for r in requests if r.file_id == "hot")
        assert hot > 4500

    def test_empty_files_rejected(self):
        generator = FragmentedReadGenerator(RngStream(1, "frag"))
        with pytest.raises(ValueError):
            generator.requests(10, [], file_length=100)
