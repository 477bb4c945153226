"""Tests for the bounded telemetry buffer (repro.analysis.timeseries.RingSeries)."""

import pytest

from repro.analysis import RingSeries


class TestRingSeries:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            RingSeries(0)

    def test_append_and_accessors(self):
        series = RingSeries(8)
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert len(series) == 2
        assert series.items() == [(1.0, 10.0), (2.0, 20.0)]
        assert series.timestamps() == [1.0, 2.0]
        assert series.values() == [10.0, 20.0]
        assert series.last() == (2.0, 20.0)

    def test_empty_series(self):
        series = RingSeries(4)
        assert len(series) == 0
        assert series.last() is None
        assert series.dropped == 0

    def test_overflow_drops_oldest_and_counts(self):
        series = RingSeries(3)
        for i in range(7):
            series.append(float(i), float(i) * 10)
        assert len(series) == 3
        assert series.dropped == 4
        assert series.timestamps() == [4.0, 5.0, 6.0]

    def test_values_coerced_to_float(self):
        series = RingSeries(2)
        series.append(1, 5)
        assert series.items() == [(1.0, 5.0)]
