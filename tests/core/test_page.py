"""Tests for page identity, metadata, and the time source."""

import pickle

import pytest

from repro.core.page import PageId, PageInfo


class TestPageId:
    def test_equality_and_hash(self):
        assert PageId("f", 0) == PageId("f", 0)
        assert hash(PageId("f", 0)) == hash(PageId("f", 0))
        assert PageId("f", 0) != PageId("f", 1)
        assert PageId("f", 0) != PageId("g", 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            PageId("f", -1)

    def test_empty_file_id_rejected(self):
        with pytest.raises(ValueError):
            PageId("", 0)

    def test_str(self):
        assert str(PageId("blk_17@gs5", 3)) == "blk_17@gs5#3"

    def test_what_hashing_in_c_must_not_change(self):
        """``PageId`` became a tuple subclass so that dicts hash and compare
        it without entering the interpreter; everything else it did stays."""
        page_id = PageId(file_id="blk_17@gs5", page_index=3)
        assert page_id == PageId("blk_17@gs5", 3)
        assert (page_id.file_id, page_id.page_index) == ("blk_17@gs5", 3)
        assert repr(page_id) == "PageId(file_id='blk_17@gs5', page_index=3)"
        assert hash(page_id) == hash(("blk_17@gs5", 3))
        for attribute in ("file_id", "page_index", "anything_else"):
            with pytest.raises(AttributeError):
                setattr(page_id, attribute, 1)
        with pytest.raises(ValueError, match="page_index must be >= 0"):
            PageId(file_id="f", page_index=-1)
        with pytest.raises(ValueError, match="file_id must be non-empty"):
            PageId(file_id="", page_index=0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_finds_the_same_dict_entry(self, protocol):
        page_id = PageId("f", 7)
        copy = pickle.loads(pickle.dumps(page_id, protocol))
        assert type(copy) is PageId and copy == page_id
        assert (copy.file_id, copy.page_index) == ("f", 7)
        assert {page_id: "payload"}[copy] == "payload"
        table = pickle.loads(pickle.dumps({page_id: "payload"}, protocol))
        assert table[PageId("f", 7)] == "payload"


class TestPageInfo:
    def test_defaults(self):
        info = PageInfo(PageId("f", 0), size=100, created_at=5.0)
        assert info.last_access == 5.0
        assert info.access_count == 0
        assert info.scope.is_global

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PageInfo(PageId("f", 0), size=-1)

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            PageInfo(PageId("f", 0), size=1, ttl=0.0)

    def test_ttl_expiry(self):
        info = PageInfo(PageId("f", 0), size=1, created_at=10.0, ttl=60.0)
        assert not info.is_expired(69.9)
        assert info.is_expired(70.0)

    def test_no_ttl_never_expires(self):
        info = PageInfo(PageId("f", 0), size=1, created_at=0.0)
        assert not info.is_expired(1e12)

    def test_file_id_shortcut(self):
        assert PageInfo(PageId("f", 2), size=1).file_id == "f"


class TestTimeSource:
    def test_default_created_at_is_wall_clock(self):
        import time

        from repro.core.page import now_wall

        before = time.time()
        info = PageInfo(PageId("f", 0), size=10)
        after = time.time()
        assert before <= info.created_at <= after
        assert info.last_access == info.created_at
        assert before <= now_wall() <= time.time()

    def test_explicit_created_at_bypasses_source(self):
        from repro.core.page import reset_time_source, set_time_source

        set_time_source(lambda: 999.0)
        try:
            info = PageInfo(PageId("f", 0), size=10, created_at=5.0)
            assert info.created_at == 5.0
        finally:
            reset_time_source()

    def test_injected_source_stamps_new_pages(self):
        from repro.core.page import reset_time_source, set_time_source
        from repro.ports.clock import SimClock

        clock = SimClock()
        clock.advance(42.0)
        set_time_source(clock.now)
        try:
            info = PageInfo(PageId("f", 0), size=10)
            assert info.created_at == 42.0
            clock.advance(8.0)
            assert PageInfo(PageId("f", 1), size=10).created_at == 50.0
        finally:
            reset_time_source()

    def test_reset_restores_wall_clock(self):
        import time

        from repro.core.page import reset_time_source, set_time_source

        set_time_source(lambda: -1.0)
        reset_time_source()
        info = PageInfo(PageId("f", 0), size=10)
        assert abs(info.created_at - time.time()) < 60.0

    def test_ttl_expiry_against_injected_clock(self):
        from repro.core.page import reset_time_source, set_time_source
        from repro.ports.clock import SimClock

        clock = SimClock()
        set_time_source(clock.now)
        try:
            info = PageInfo(PageId("f", 0), size=10, ttl=30.0)
            assert not info.is_expired(clock.now() + 29.9)
            assert info.is_expired(clock.now() + 30.0)
        finally:
            reset_time_source()

    def test_installed_time_source_scopes_and_restores(self):
        from repro.core.page import installed_time_source, now_wall
        from repro.ports.clock import SimClock

        clock = SimClock(start=7.0)
        with installed_time_source(clock.now):
            assert PageInfo(PageId("f", 0), size=10).created_at == 7.0
        import time

        assert abs(now_wall() - time.time()) < 60.0

    def test_installed_time_source_restores_on_error(self):
        from repro.core.page import installed_time_source, now_wall
        from repro.ports.clock import SimClock

        import time

        with pytest.raises(RuntimeError):
            with installed_time_source(SimClock(start=3.0).now):
                raise RuntimeError("scenario blew up")
        assert abs(now_wall() - time.time()) < 60.0

    def test_installed_time_source_nests(self):
        """Nested scenarios restore the *enclosing* source, not the wall
        clock -- the chaos soak's double-run depends on this."""
        from repro.core.page import installed_time_source, now_wall
        from repro.ports.clock import SimClock

        outer, inner = SimClock(start=100.0), SimClock(start=200.0)
        with installed_time_source(outer.now):
            with installed_time_source(inner.now):
                assert now_wall() == 200.0
            assert now_wall() == 100.0
