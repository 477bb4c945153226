"""Tests for the hierarchical scope tree."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.scope import CacheScope

_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="-_="),
    min_size=1,
    max_size=8,
)


class TestConstruction:
    def test_global(self):
        scope = CacheScope.global_scope()
        assert scope.is_global
        assert scope.depth == 1
        assert str(scope) == "global"

    def test_parse_full(self):
        scope = CacheScope.parse("global.sales.orders.ds=2024-01-01")
        assert scope.depth == 4
        assert scope.name == "ds=2024-01-01"

    def test_parse_reroots(self):
        assert CacheScope.parse("sales.orders") == CacheScope.parse("global.sales.orders")

    def test_parse_empty_is_global(self):
        assert CacheScope.parse("") == CacheScope.global_scope()

    def test_for_table(self):
        assert str(CacheScope.for_table("s", "t")) == "global.s.t"

    def test_for_partition(self):
        assert str(CacheScope.for_partition("s", "t", "p")) == "global.s.t.p"

    def test_must_be_rooted(self):
        with pytest.raises(ValueError):
            CacheScope(("sales",))

    def test_empty_component_rejected(self):
        with pytest.raises(ValueError):
            CacheScope(("global", ""))

    def test_component_with_separator_rejected(self):
        with pytest.raises(ValueError):
            CacheScope(("global", "a.b"))

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            CacheScope(())


class TestNavigation:
    def test_parent_chain(self):
        scope = CacheScope.for_partition("s", "t", "p")
        assert str(scope.parent()) == "global.s.t"
        assert CacheScope.global_scope().parent() is None

    def test_child(self):
        assert CacheScope.global_scope().child("s").depth == 2

    def test_ancestors_finest_first(self):
        scope = CacheScope.for_partition("s", "t", "p")
        chain = [str(s) for s in scope.ancestors()]
        assert chain == ["global.s.t.p", "global.s.t", "global.s", "global"]

    def test_caches_are_invisible(self):
        """``chain_keys`` and the memoised chain are derived from
        ``components``; they take no part in ``==``, ``hash`` or ``repr``,
        and a scope that has walked its chain equals one that has not."""
        walked = CacheScope.for_partition("s", "t", "p")
        fresh = CacheScope.for_partition("s", "t", "p")
        assert walked.chain_keys == ("global.s.t.p", "global.s.t", "global.s", "global")
        first = walked.ancestors()
        assert walked.ancestors() == first and walked.ancestors() is not first
        assert all(a is b for a, b in zip(first, walked.ancestors()))  # built once
        first.clear()  # the caller's list, not the cache
        assert len(walked.ancestors()) == 4
        assert walked == fresh and hash(walked) == hash(fresh)
        assert repr(walked) == repr(fresh) == "CacheScope(components=('global', 's', 't', 'p'))"
        assert {walked: 1}[fresh] == 1
        copy = pickle.loads(pickle.dumps(walked))
        assert copy == walked and copy.chain_keys == walked.chain_keys
        assert [str(s) for s in copy.ancestors()] == list(walked.chain_keys)
        with pytest.raises(AttributeError):
            walked.chain_keys = ()

    def test_global_scope_is_one_object(self):
        assert CacheScope.global_scope() is CacheScope.global_scope()
        assert CacheScope.parse("") is CacheScope.global_scope()
        assert CacheScope(("global",)) == CacheScope.global_scope()

    def test_contains(self):
        table = CacheScope.for_table("s", "t")
        partition = table.child("p")
        assert table.contains(partition)
        assert table.contains(table)
        assert not partition.contains(table)
        assert not table.contains(CacheScope.for_table("s", "u"))

    def test_global_contains_everything(self):
        assert CacheScope.global_scope().contains(CacheScope.for_table("a", "b"))

    @given(parts=st.lists(_name, min_size=0, max_size=5))
    def test_parse_str_roundtrip(self, parts):
        scope = CacheScope.parse(".".join(parts))
        assert CacheScope.parse(str(scope)) == scope

    @given(parts=st.lists(_name, min_size=1, max_size=5))
    def test_ancestors_are_prefixes(self, parts):
        scope = CacheScope(("global", *parts))
        for ancestor in scope.ancestors():
            assert ancestor.contains(scope)
        assert len(scope.ancestors()) == scope.depth
