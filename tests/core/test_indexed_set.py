"""Tests for the generic multi-index set, including a stateful property test."""

from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.indexed_set import Index, IndexedSet


@dataclass(frozen=True)
class Item:
    key: str
    group: int
    tags: tuple[str, ...] = ()


def make_set() -> IndexedSet[Item]:
    s: IndexedSet[Item] = IndexedSet(primary=lambda item: item.key)
    s.register_index(Index("group", lambda item: item.group))
    s.register_index(Index("tag", lambda item: item.tags, multi=True))
    return s


class TestBasics:
    def test_add_and_get(self):
        s = make_set()
        assert s.add(Item("a", 1))
        assert s.get("a") == Item("a", 1)
        assert len(s) == 1
        assert Item("a", 1) in s
        assert s.contains_key("a")

    def test_duplicate_add_is_noop(self):
        s = make_set()
        s.add(Item("a", 1))
        assert not s.add(Item("a", 2))
        assert s.get("a").group == 1

    def test_remove(self):
        s = make_set()
        s.add(Item("a", 1))
        assert s.remove_key("a") == Item("a", 1)
        assert s.remove_key("a") is None
        assert len(s) == 0

    def test_discard(self):
        s = make_set()
        item = Item("a", 1)
        s.add(item)
        assert s.discard(item)
        assert not s.discard(item)

    def test_replace(self):
        s = make_set()
        s.add(Item("a", 1))
        displaced = s.replace(Item("a", 2))
        assert displaced == Item("a", 1)
        assert s.get("a").group == 2
        assert s.lookup("group", 1) == []
        assert s.lookup("group", 2) == [Item("a", 2)]

    def test_iter(self):
        s = make_set()
        s.add(Item("a", 1))
        s.add(Item("b", 2))
        assert {item.key for item in s} == {"a", "b"}


class TestIndices:
    def test_lookup_by_group(self):
        s = make_set()
        s.add(Item("a", 1))
        s.add(Item("b", 1))
        s.add(Item("c", 2))
        assert {i.key for i in s.lookup("group", 1)} == {"a", "b"}
        assert s.count("group", 1) == 2
        assert s.count("group", 99) == 0

    def test_multi_key_index(self):
        s = make_set()
        s.add(Item("a", 1, tags=("x", "y")))
        s.add(Item("b", 1, tags=("y",)))
        assert {i.key for i in s.lookup("tag", "y")} == {"a", "b"}
        assert {i.key for i in s.lookup("tag", "x")} == {"a"}

    def test_remove_cleans_all_indices(self):
        s = make_set()
        s.add(Item("a", 1, tags=("x",)))
        s.remove_key("a")
        assert s.lookup("group", 1) == []
        assert s.lookup("tag", "x") == []
        assert list(s.index_keys("group")) == []

    def test_index_keys(self):
        s = make_set()
        s.add(Item("a", 1))
        s.add(Item("b", 2))
        assert sorted(s.index_keys("group")) == [1, 2]

    def test_late_registration_backfills(self):
        s: IndexedSet[Item] = IndexedSet(primary=lambda item: item.key)
        s.add(Item("a", 1))
        s.add(Item("b", 2))
        s.register_index(Index("group", lambda item: item.group))
        assert s.lookup("group", 1) == [Item("a", 1)]

    def test_keys_are_those_at_add_whatever_the_element_becomes(self):
        """Regression: removal used to recompute keys from the element as it
        is *now*, so mutating an indexed property stranded the token in its
        old bucket and ``lookup`` raised ``KeyError`` on the dangling token."""
        s: IndexedSet[list] = IndexedSet(primary=lambda box: box[0], weight=lambda box: box[3])
        s.register_index(Index("group", lambda box: box[1]))
        s.register_index(Index("tag", lambda box: box[2], multi=True))
        box = ["a", 1, ["x", "y"], 10]
        other = ["b", 1, ["y"], 5]
        s.add(box)
        s.add(other)
        box[1], box[2], box[3] = 2, ["z"], 99
        # filed where it was added, not where it points now
        assert s.lookup("group", 1) == [box, other]
        assert s.lookup("group", 2) == [] and s.lookup("tag", "z") == []
        assert s.remove_key("a") is box
        assert s.lookup("group", 1) == [other]
        assert s.lookup("tag", "x") == [] and s.lookup("tag", "y") == [other]
        assert s.total_weight == 5
        assert s.remove_key("b") is other
        for name in s.index_names():
            assert s.index_keys(name) == []
        assert s.total_weight == 0 and len(s) == 0

    def test_late_registration_captures_keys_too(self):
        s: IndexedSet[list] = IndexedSet(primary=lambda box: box[0])
        box = ["a", 1]
        s.add(box)
        s.register_index(Index("group", lambda box: box[1]))
        box[1] = 2
        s.remove_key("a")
        assert s.index_keys("group") == [] and s.lookup("group", 1) == []

    def test_duplicate_index_name_rejected(self):
        s = make_set()
        with pytest.raises(ValueError):
            s.register_index(Index("group", lambda item: item.group))

    def test_unknown_index_raises(self):
        s = make_set()
        with pytest.raises(KeyError):
            s.lookup("nope", 1)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove"]),
            st.integers(min_value=0, max_value=20),  # key
            st.integers(min_value=0, max_value=3),  # group
        ),
        max_size=200,
    )
)
def test_indices_always_consistent_with_universe(ops):
    """Property: after any add/remove sequence, every index partitions the
    universe exactly (Figure 5's invariant)."""
    s: IndexedSet[Item] = IndexedSet(primary=lambda item: item.key)
    s.register_index(Index("group", lambda item: item.group))
    model: dict[str, Item] = {}
    for op, key_n, group in ops:
        key = f"k{key_n}"
        if op == "add":
            item = Item(key, group)
            added = s.add(item)
            assert added == (key not in model)
            model.setdefault(key, item)
        else:
            removed = s.remove_key(key)
            assert removed == model.pop(key, None)
    assert len(s) == len(model)
    assert {i.key for i in s} == set(model)
    # Index buckets partition the universe.
    seen: list[str] = []
    for group_key in s.index_keys("group"):
        bucket = s.lookup("group", group_key)
        for item in bucket:
            assert item.group == group_key
            assert model[item.key] == item
        seen.extend(i.key for i in bucket)
    assert sorted(seen) == sorted(model)
