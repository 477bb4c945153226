"""A generic multi-index set (Figure 5).

The paper's metastore evolved from two ad-hoc maps (by page ID and by file
ID) to *indexed sets*: a universe of page metadata plus any number of
secondary indices, each keyed by a property of the element.  Membership,
insertion, and removal keep every index consistent; lookups by any index are
O(1) to the bucket.

This module implements that structure generically so the metastore can index
pages by file ID, by storage directory, and by scope without bespoke
bookkeeping for each.
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class Index(Generic[T]):
    """One secondary index: ``property(element) -> set of elements``.

    An index function may map an element to a single key or, via
    ``multi=True``, to an iterable of keys (used for scope indices where a
    page belongs to its partition scope *and* every ancestor scope).
    ``weights`` holds the summed weight of each populated key's elements.
    """

    def __init__(
        self,
        name: str,
        key_fn: Callable[[T], Hashable] | Callable[[T], Iterable[Hashable]],
        *,
        multi: bool = False,
    ) -> None:
        self.name = name
        self._key_fn = key_fn
        self._multi = multi
        self._buckets: dict[Hashable, set[int]] = {}
        self.weights: dict[Hashable, int] = {}

    def keys(self) -> Iterator[Hashable]:
        """All distinct index keys currently populated."""
        return iter(self._buckets.keys())


class IndexedSet(Generic[T]):
    """A set with O(1) lookups along any registered index.

    Elements are stored once (keyed by an internal token derived from a
    caller-supplied *primary key*); every index maps property values to
    token sets.  All mutation goes through :meth:`add` / :meth:`discard`,
    which keep the indices consistent -- the invariant the property tests
    in ``tests/core/test_indexed_set.py`` verify.

    An element's index keys and ``weight`` are read once, at ``add``, and
    kept beside it in ``entries`` (primary key -> element, token, keys per
    index, weight); removal debits the kept copy, so mutating an element
    cannot strand its token in a bucket it no longer names.  The owning
    store may read ``entries`` to answer ``get``/``in`` with one probe.

    >>> s = IndexedSet(primary=lambda x: x)
    >>> s.register_index(Index("parity", lambda x: x % 2))
    >>> for n in range(5):
    ...     _ = s.add(n)
    >>> sorted(s.lookup("parity", 0))
    [0, 2, 4]
    """

    def __init__(
        self, primary: Callable[[T], Hashable], *,
        weight: Callable[[T], int] = lambda element: 1,
    ) -> None:
        self._primary = primary
        self._weight = weight
        self.entries: dict[Hashable, tuple[T, int, tuple, int]] = {}
        self._elements: dict[int, T] = {}
        self._next_token = 0
        self._indices: dict[str, Index[T]] = {}
        self.total_weight = 0

    # -- index registration ------------------------------------------------

    def register_index(self, index: Index[T]) -> None:
        """Attach an index; existing elements are back-filled into it."""
        if index.name in self._indices:
            raise ValueError(f"duplicate index name {index.name!r}")
        self._indices[index.name] = index
        for key, (element, token, keys, weight) in self.entries.items():
            keys += self._file((index,), element, token, weight)
            self.entries[key] = (element, token, keys, weight)

    def index_names(self) -> list[str]:
        return list(self._indices)

    # -- set protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[T]:
        return iter(self._elements.values())

    def __contains__(self, element: T) -> bool:
        return self._primary(element) in self.entries

    def contains_key(self, primary_key: Hashable) -> bool:
        return primary_key in self.entries

    def get(self, primary_key: Hashable) -> T | None:
        """Fetch an element by its primary key, or ``None``."""
        entry = self.entries.get(primary_key)
        return None if entry is None else entry[0]

    def add(self, element: T) -> bool:
        """Insert; returns False (no-op) if the primary key already exists."""
        key = self._primary(element)
        if key in self.entries:
            return False
        token = self._next_token
        self._next_token += 1
        weight = self._weight(element)
        keys = self._file(self._indices.values(), element, token, weight)
        self.entries[key] = (element, token, keys, weight)
        self._elements[token] = element
        self.total_weight += weight
        return True

    @staticmethod
    def _file(
        indices: Iterable[Index[T]], element: T, token: int, weight: int
    ) -> tuple[tuple[Hashable, ...], ...]:
        """File ``token`` in each index under the element's keys *as they
        are now*; returns those keys, one tuple per index."""
        captured = []
        for index in indices:
            raw = index._key_fn(element)
            keys = tuple(dict.fromkeys(raw)) if index._multi else (raw,)
            captured.append(keys)
            buckets, weights = index._buckets, index.weights
            for key in keys:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {token}
                    weights[key] = weight
                else:
                    bucket.add(token)
                    weights[key] += weight
        return tuple(captured)

    def replace(self, element: T) -> T | None:
        """Insert or replace by primary key; returns the displaced element."""
        key = self._primary(element)
        old = self.remove_key(key)
        self.add(element)
        return old

    def discard(self, element: T) -> bool:
        """Remove by element; returns True if it was present."""
        return self.remove_key(self._primary(element)) is not None

    def remove_key(self, primary_key: Hashable) -> T | None:
        """Remove by primary key; returns the removed element or ``None``."""
        entry = self.entries.pop(primary_key, None)
        if entry is None:
            return None
        element, token, keys, weight = entry
        del self._elements[token]
        self.total_weight -= weight
        for index, index_keys in zip(self._indices.values(), keys):
            buckets, weights = index._buckets, index.weights
            for key in index_keys:
                bucket = buckets[key]
                bucket.discard(token)
                if bucket:
                    weights[key] -= weight
                else:
                    del buckets[key], weights[key]
        return element

    # -- index lookups -------------------------------------------------------

    def lookup(self, index_name: str, key: Hashable) -> list[T]:
        """All elements whose indexed property equals ``key``."""
        index = self._indices[index_name]
        tokens = index._buckets.get(key, ())
        return [self._elements[t] for t in tokens]

    def count(self, index_name: str, key: Hashable) -> int:
        """Bucket size without materializing the elements."""
        return len(self._indices[index_name]._buckets.get(key, ()))

    def index_keys(self, index_name: str) -> list[Hashable]:
        """Distinct populated keys of one index."""
        return list(self._indices[index_name].keys())
