"""Tests for percentile helpers and report tables."""

import pytest

from repro.analysis import Table, format_bytes, percentile, reduction


class TestPercentiles:
    def test_basic(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100

    def test_empty(self):
        assert percentile([], 95) == 0.0

    def test_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_reduction(self):
        assert reduction(100, 33) == pytest.approx(0.67)
        assert reduction(0, 10) == 0.0
        assert reduction(10, 10) == 0.0


class TestReport:
    def test_render(self):
        table = Table(["host", "reads"], title="Table 1")
        table.add_row(["host1", 13_500_000])
        rendered = table.render()
        assert "Table 1" in rendered
        assert "host1" in rendered
        assert "13500000" in rendered
        assert str(table) == rendered

    def test_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2**20) == "1.0 MiB"
        assert format_bytes(1.5 * 2**30) == "1.5 GiB"

