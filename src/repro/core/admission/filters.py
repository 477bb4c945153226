"""Static cache filters: regex and JSON-format rules (Section 5.1).

The Presto local cache admits data through filtering rules "set by platform
owners and infrequently updated".  A rule targets a table (by exact name or
regex over ``schema.table``) and may bound how many of its partitions stay
cached via ``maxCachedPartitions`` -- the snippet in the paper caps
``table_bar`` at 100 partitions.

Rules are expressed as JSON-compatible dicts::

    [
        {"table": "schema_foo.table_bar", "maxCachedPartitions": 100},
        {"tablePattern": "ads\\..*", "maxCachedPartitions": 10},
        {"table": "tmp.scratch", "admit": false},
    ]

Partition capping is LRU over partitions: when a table already has
``maxCachedPartitions`` distinct partitions admitted and another one asks,
it is admitted as the newest and the least-recently-seen one is retired.
The cache manager asks only for pages a read must fetch, so a retired
partition's resident pages keep serving until evicted, its next fetch
re-admits it, and recency advances on fetches and direct puts, not hits.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.scope import CacheScope


@dataclass(frozen=True, slots=True)
class FilterRule:
    """One admission rule.

    Attributes:
        pattern: compiled regex matched (fully) against ``schema.table``.
        admit: False turns the rule into a deny-list entry.
        max_cached_partitions: cap on distinct partitions kept admitted,
            ``None`` for unlimited.
    """

    pattern: re.Pattern[str]
    admit: bool = True
    max_cached_partitions: int | None = None

    def matches(self, qualified_table: str) -> bool:
        return self.pattern.fullmatch(qualified_table) is not None


def parse_filter_rules(rules: list[dict]) -> list[FilterRule]:
    """Build :class:`FilterRule` objects from JSON-format dicts."""
    parsed: list[FilterRule] = []
    for raw in rules:
        if "table" in raw and "tablePattern" in raw:
            raise ValueError(f"rule {raw!r} sets both 'table' and 'tablePattern'")
        if "table" in raw:
            pattern = re.compile(re.escape(raw["table"]))
        elif "tablePattern" in raw:
            pattern = re.compile(raw["tablePattern"])
        else:
            raise ValueError(f"rule {raw!r} needs 'table' or 'tablePattern'")
        max_parts = raw.get("maxCachedPartitions")
        if max_parts is not None and max_parts <= 0:
            raise ValueError(f"maxCachedPartitions must be positive, got {max_parts}")
        parsed.append(
            FilterRule(
                pattern=pattern,
                admit=bool(raw.get("admit", True)),
                max_cached_partitions=max_parts,
            )
        )
    return parsed


class CacheFilter:
    """Evaluates filter rules against scopes; tracks partition caps.

    First matching rule wins (rules are ordered, like the production JSON
    config).  A scope shallower than table level (schema or global) is
    admitted only by an explicit match-all rule.
    """

    def __init__(
        self, rules: list[FilterRule], *, default_admit: bool = False
    ) -> None:
        self._rules = list(rules)
        self._default_admit = default_admit
        # table -> LRU-ordered set of admitted partition names
        self._admitted_partitions: dict[str, OrderedDict[str, None]] = {}

    @classmethod
    def from_json(
        cls, rules: list[dict], *, default_admit: bool = False
    ) -> "CacheFilter":
        return cls(parse_filter_rules(rules), default_admit=default_admit)

    def _qualified_table(self, scope: CacheScope) -> str | None:
        # scope components: (global, schema, table[, partition, ...])
        if scope.depth < 3:
            return None
        return f"{scope.components[1]}.{scope.components[2]}"

    def admit(self, scope: CacheScope) -> bool:
        """Decide admission for an access within ``scope``."""
        qualified = self._qualified_table(scope)
        if qualified is None:
            return self._default_admit
        for rule in self._rules:
            if not rule.matches(qualified):
                continue
            if not rule.admit:
                return False
            if rule.max_cached_partitions is None or scope.depth < 4:
                return True
            return self._admit_partition(
                qualified, scope.components[3], rule.max_cached_partitions
            )
        return self._default_admit

    def _admit_partition(self, table: str, partition: str, cap: int) -> bool:
        admitted = self._admitted_partitions.setdefault(table, OrderedDict())
        if partition in admitted:
            admitted.move_to_end(partition)
            return True
        admitted[partition] = None
        if len(admitted) > cap:
            admitted.popitem(last=False)  # retire least-recently-seen
        return partition in admitted

    def admitted_partitions(self, table: str) -> list[str]:
        """Currently admitted partitions of ``table`` (LRU order, oldest first)."""
        return list(self._admitted_partitions.get(table, ()))


class FilterAdmissionPolicy:
    """Adapts :class:`CacheFilter` to the :class:`AdmissionPolicy` protocol."""

    def __init__(self, cache_filter: CacheFilter) -> None:
        self._filter = cache_filter

    @classmethod
    def from_json(
        cls, rules: list[dict], *, default_admit: bool = False
    ) -> "FilterAdmissionPolicy":
        return cls(CacheFilter.from_json(rules, default_admit=default_admit))

    def admit(self, file_id: str, scope: CacheScope, now: float) -> bool:
        return self._filter.admit(scope)
