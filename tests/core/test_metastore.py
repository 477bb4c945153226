"""Tests for the page metastore's indices and byte accounting."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.metastore import PageMetaStore
from repro.core.page import PageId, PageInfo
from repro.core.scope import CacheScope

PART_A = CacheScope.for_partition("s", "t", "a")
PART_B = CacheScope.for_partition("s", "t", "b")
TABLE = CacheScope.for_table("s", "t")
OTHER_TABLE = CacheScope.for_table("s", "u")


def info(file_id: str, index: int, size: int = 10, scope=PART_A, directory: int = 0):
    return PageInfo(PageId(file_id, index), size=size, scope=scope, directory=directory)


class TestBasics:
    def test_add_get_remove(self):
        store = PageMetaStore()
        page = info("f", 0)
        assert store.add(page)
        assert store.get(page.page_id) is page
        assert page.page_id in store
        assert store.remove(page.page_id) is page
        assert store.get(page.page_id) is None
        assert len(store) == 0

    def test_duplicate_add_rejected(self):
        store = PageMetaStore()
        store.add(info("f", 0))
        assert not store.add(info("f", 0, size=99))
        assert store.bytes_used == 10

    def test_remove_absent_returns_none(self):
        assert PageMetaStore().remove(PageId("f", 0)) is None


class TestByteAccounting:
    def test_totals(self):
        store = PageMetaStore()
        store.add(info("f", 0, size=10))
        store.add(info("f", 1, size=20))
        assert store.bytes_used == 30
        store.remove(PageId("f", 0))
        assert store.bytes_used == 20

    def test_per_directory(self):
        store = PageMetaStore()
        store.add(info("f", 0, size=10, directory=0))
        store.add(info("g", 0, size=25, directory=1))
        assert store.bytes_in_dir(0) == 10
        assert store.bytes_in_dir(1) == 25
        assert store.bytes_in_dir(7) == 0

    def test_scope_rollup(self):
        store = PageMetaStore()
        store.add(info("f", 0, size=10, scope=PART_A))
        store.add(info("g", 0, size=20, scope=PART_B))
        store.add(info("h", 0, size=40, scope=OTHER_TABLE))
        assert store.bytes_in_scope(PART_A) == 10
        assert store.bytes_in_scope(PART_B) == 20
        assert store.bytes_in_scope(TABLE) == 30
        assert store.bytes_in_scope(CacheScope.parse("global.s")) == 70
        assert store.bytes_in_scope(CacheScope.global_scope()) == 70

    def test_child_scope_usage(self):
        store = PageMetaStore()
        store.add(info("f", 0, size=10, scope=PART_A))
        store.add(info("g", 0, size=20, scope=PART_B))
        usage = store.child_scope_usage(TABLE)
        assert usage == {"global.s.t.a": 10, "global.s.t.b": 20}

    def test_child_scope_usage_empty(self):
        assert PageMetaStore().child_scope_usage(TABLE) == {}


class TestBulkLookups:
    def test_pages_of_file(self):
        store = PageMetaStore()
        store.add(info("f", 0))
        store.add(info("f", 1))
        store.add(info("g", 0))
        assert {p.page_id.page_index for p in store.pages_of_file("f")} == {0, 1}
        assert store.file_ids() == {"f", "g"}

    def test_pages_in_scope_subtree(self):
        store = PageMetaStore()
        store.add(info("f", 0, scope=PART_A))
        store.add(info("g", 0, scope=PART_B))
        store.add(info("h", 0, scope=OTHER_TABLE))
        assert len(store.pages_in_scope(TABLE)) == 2
        assert len(store.pages_in_scope(CacheScope.global_scope())) == 3

    def test_pages_in_dir(self):
        store = PageMetaStore()
        store.add(info("f", 0, directory=0))
        store.add(info("g", 0, directory=1))
        assert [p.file_id for p in store.pages_in_dir(1)] == ["g"]


class TestRecordsAreMutable:
    def test_counters_return_to_zero_whatever_happened_to_the_record(self):
        """Regression: ``ms.add(info); info.directory = 1; ms.remove(id)``
        left the token in bucket ``dir=0`` (``pages_in_dir(0)`` then raised
        ``KeyError``) and drove ``bytes_in_dir(1)`` negative; ``scope`` and
        ``size`` went wrong the same way."""
        store = PageMetaStore()
        moved = info("f", 0, size=10, scope=PART_A, directory=0)
        steady = info("f", 1, size=7, scope=PART_B, directory=0)
        store.add(moved)
        store.add(steady)
        moved.directory, moved.scope, moved.size = 1, OTHER_TABLE, 1000
        assert store.bytes_in_dir(0) == 17 and store.bytes_in_dir(1) == 0
        assert store.pages_in_dir(0) == [moved, steady]
        assert store.pages_in_scope(OTHER_TABLE) == []
        assert store.remove(moved.page_id) is moved
        assert store.pages_in_dir(0) == [steady] and store.pages_in_dir(1) == []
        assert store.pages_in_scope(PART_A) == [] and store.pages_in_scope(TABLE) == [steady]
        assert (store.bytes_used, store.bytes_in_dir(0), store.bytes_in_dir(1)) == (7, 7, 0)
        assert store.bytes_in_scope(PART_A) == 0 and store.bytes_in_scope(OTHER_TABLE) == 0
        assert store.bytes_in_scope(TABLE) == 7
        store.remove(steady.page_id)
        assert store.bytes_used == 0 and len(store) == 0
        assert store.scopes() == [] and store.file_ids() == set()
        for scope in (PART_A, PART_B, TABLE, OTHER_TABLE, CacheScope.global_scope()):
            assert store.bytes_in_scope(scope) == 0
            assert store.pages_in_scope(scope) == []
        assert store.child_scope_usage(TABLE) == {}


class TestTtl:
    def test_a_sweep_looks_only_at_pages_that_carry_a_ttl(self, monkeypatch):
        """``expired_pages`` used to scan every record, under the lock every
        hit needs, even when no page had a TTL (the default)."""
        asked = []
        is_expired = PageInfo.is_expired
        monkeypatch.setattr(
            PageInfo, "is_expired",
            lambda self, now: asked.append(self.page_id) or is_expired(self, now),
        )
        store = PageMetaStore()
        for n in range(100_000):
            store.add(PageInfo(PageId("f", n), size=1, created_at=0.0))
        assert store.expired_pages(now=1e9) == [] and asked == []
        for n in (3, 1, 2):
            store.add(PageInfo(PageId("g", n), size=1, created_at=0.0, ttl=10.0 * n))
        # oldest admission first, as the full scan found them
        assert [p.page_id.page_index for p in store.expired_pages(now=25.0)] == [1, 2]
        assert len(asked) == 3
        store.remove(PageId("g", 1))
        assert [p.page_id.page_index for p in store.expired_pages(now=1e9)] == [3, 2]
        for n in (3, 2):
            store.remove(PageId("g", n))
        del asked[:]
        assert store.expired_pages(now=1e9) == [] and asked == []

    def test_expired_pages(self):
        store = PageMetaStore()
        fresh = PageInfo(PageId("f", 0), size=1, created_at=0.0, ttl=100.0)
        stale = PageInfo(PageId("g", 0), size=1, created_at=0.0, ttl=10.0)
        eternal = PageInfo(PageId("h", 0), size=1, created_at=0.0)
        for page in (fresh, stale, eternal):
            store.add(page)
        expired = store.expired_pages(now=50.0)
        assert [p.file_id for p in expired] == ["g"]


@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),  # file number
            st.integers(min_value=0, max_value=3),  # page index
            st.integers(min_value=1, max_value=100),  # size
            st.sampled_from(["a", "b"]),  # partition
            st.integers(min_value=0, max_value=2),  # directory
        ),
        max_size=60,
    ),
    removals=st.lists(st.integers(min_value=0, max_value=59), max_size=30),
)
def test_accounting_matches_brute_force(entries, removals):
    """Property: incremental byte accounting equals recomputation from scratch."""
    store = PageMetaStore()
    model: dict = {}
    for file_n, index, size, part, directory in entries:
        page = PageInfo(
            PageId(f"f{file_n}", index),
            size=size,
            scope=CacheScope.for_partition("s", "t", part),
            directory=directory,
        )
        if store.add(page):
            model[page.page_id] = page
    for pick in removals:
        keys = sorted(model, key=str)
        if not keys:
            break
        key = keys[pick % len(keys)]
        store.remove(key)
        del model[key]
    assert store.bytes_used == sum(p.size for p in model.values())
    for directory in range(3):
        expected = sum(p.size for p in model.values() if p.directory == directory)
        assert store.bytes_in_dir(directory) == expected
    for part in ("a", "b"):
        scope = CacheScope.for_partition("s", "t", part)
        expected = sum(p.size for p in model.values() if p.scope == scope)
        assert store.bytes_in_scope(scope) == expected
