"""Hierarchical cache scopes (Section 4.4).

Presto organizes data in a partition -> table -> schema hierarchy; the cache
mirrors it as a tree of nested scopes rooted at the global scope:

    global
    global.sales                      (schema)
    global.sales.orders               (table)
    global.sales.orders.ds=2024-01-01 (partition)

Pages are tagged with the finest scope of the file they belong to.  The
quota manager walks a page's scope chain from the finest level up to the
global scope (Section 5.2), and bulk delete ("drop this outdated
partition") enumerates a scope subtree without any directory listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GLOBAL_SCOPE_NAME = "global"
_SEPARATOR = "."


@dataclass(frozen=True, slots=True)
class CacheScope:
    """An immutable path in the scope tree.

    ``components`` always starts with ``"global"``; depth 1 is the global
    scope, depth 2 a schema, depth 3 a table, depth 4 a partition.  Deeper
    nesting is allowed for custom tenant hierarchies (Section 5.2 "custom
    tenants").

    ``chain_keys`` -- the dotted names of this scope and every enclosing
    one, finest first, as the scope index and the quota table are keyed --
    and the memoised ancestor chain derive from ``components`` alone, so
    they cannot go stale and take no part in ``==``, ``hash`` or ``repr``.
    """

    components: tuple[str, ...]
    chain_keys: tuple[str, ...] = field(init=False, compare=False, repr=False)
    _enclosing: "tuple[CacheScope, ...] | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("scope must have at least the global component")
        if self.components[0] != GLOBAL_SCOPE_NAME:
            raise ValueError(
                f"scope must be rooted at {GLOBAL_SCOPE_NAME!r}, got {self.components}"
            )
        for part in self.components:
            if not part or _SEPARATOR in part:
                raise ValueError(f"invalid scope component {part!r}")
        parts = self.components
        object.__setattr__(self, "chain_keys", tuple(
            _SEPARATOR.join(parts[:depth]) for depth in range(len(parts), 0, -1)
        ))

    # -- constructors ------------------------------------------------------

    @classmethod
    def global_scope(cls) -> "CacheScope":
        """The root scope covering the entire cache (one shared instance)."""
        return _GLOBAL

    @classmethod
    def parse(cls, dotted: str) -> "CacheScope":
        """Parse ``"global.schema.table.partition"`` notation.

        A path not rooted at ``global`` is re-rooted for convenience:
        ``parse("sales.orders")`` == ``parse("global.sales.orders")``.
        """
        parts = tuple(p for p in dotted.split(_SEPARATOR) if p)
        if not parts:
            return cls.global_scope()
        if parts[0] != GLOBAL_SCOPE_NAME:
            parts = (GLOBAL_SCOPE_NAME, *parts)
        return cls(parts)

    @classmethod
    def for_table(cls, schema: str, table: str) -> "CacheScope":
        return cls((GLOBAL_SCOPE_NAME, schema, table))

    @classmethod
    def for_partition(cls, schema: str, table: str, partition: str) -> "CacheScope":
        return cls((GLOBAL_SCOPE_NAME, schema, table, partition))

    # -- navigation --------------------------------------------------------

    @property
    def depth(self) -> int:
        """1 for global, 2 for schema, 3 for table, 4 for partition."""
        return len(self.components)

    @property
    def name(self) -> str:
        """The final (finest) component."""
        return self.components[-1]

    @property
    def is_global(self) -> bool:
        return len(self.components) == 1

    def parent(self) -> "CacheScope | None":
        """The enclosing scope, or ``None`` for the global scope."""
        if self.is_global:
            return None
        return CacheScope(self.components[:-1])

    def child(self, name: str) -> "CacheScope":
        """A direct sub-scope."""
        return CacheScope((*self.components, name))

    def ancestors(self) -> list["CacheScope"]:
        """This scope and every enclosing scope, finest first.

        This is exactly the chain the quota check walks (Section 5.2):
        partition -> table -> schema -> global.
        """
        enclosing = self._enclosing
        if enclosing is None:
            parent = self.parent()
            enclosing = () if parent is None else tuple(parent.ancestors())
            object.__setattr__(self, "_enclosing", enclosing)
        return [self, *enclosing]

    def contains(self, other: "CacheScope") -> bool:
        """True if ``other`` equals this scope or lies inside it."""
        return other.components[: len(self.components)] == self.components

    def __str__(self) -> str:
        return self.chain_keys[0]


_GLOBAL = CacheScope((GLOBAL_SCOPE_NAME,))
