"""Tests for the TPC-DS-shaped catalog and query templates."""

import pytest

from repro.workload.tpcds import (
    build_tpcds_catalog_fast,
    tpcds_queries,
)

MIB = 1024 * 1024


class TestCatalog:
    def test_tables_present(self):
        catalog, source = build_tpcds_catalog_fast(32 * MIB)
        assert "tpcds.store_sales" in catalog
        assert "tpcds.date_dim" in catalog
        assert len(catalog.tables()) == 12

    def test_byte_shares_ordered(self):
        catalog, __ = build_tpcds_catalog_fast(64 * MIB)
        store_sales = catalog.table("tpcds.store_sales").size
        web_sales = catalog.table("tpcds.web_sales").size
        date_dim = catalog.table("tpcds.date_dim").size
        assert store_sales > web_sales > date_dim

    def test_source_registered_for_every_file(self):
        catalog, source = build_tpcds_catalog_fast(32 * MIB)
        for table in catalog.tables():
            for __, data_file in table.all_files():
                assert source.file_length(data_file.file_id) == data_file.size

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            build_tpcds_catalog_fast(0)


class TestQueries:
    def test_99_queries(self):
        queries = tpcds_queries()
        assert len(queries) == 99
        assert queries[0].query_id == "q1"
        assert queries[-1].query_id == "q99"

    def test_deterministic(self):
        assert tpcds_queries(seed=1) == tpcds_queries(seed=1)
        assert tpcds_queries(seed=1) != tpcds_queries(seed=2)

    def test_queries_runnable_against_catalog(self):
        catalog, __ = build_tpcds_catalog_fast(32 * MIB)
        for query in tpcds_queries(count=20):
            for scan in query.scans:
                assert scan.table in catalog

    def test_structure(self):
        for query in tpcds_queries(count=30):
            fact_scans = [s for s in query.scans if s.partition_fraction < 1.0]
            dim_scans = [s for s in query.scans if s.partition_fraction == 1.0]
            assert 1 <= len(fact_scans) <= 2
            assert 1 <= len(dim_scans) <= 3
            assert query.compute_seconds > 0

    def test_io_heavy_variant_cuts_compute(self):
        normal = tpcds_queries(count=10)
        heavy = tpcds_queries(count=10, io_heavy=True)
        for n, h in zip(normal, heavy):
            assert h.compute_seconds < n.compute_seconds
            assert h.scans == n.scans
