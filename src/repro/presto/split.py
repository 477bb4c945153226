"""Splits: the scheduling unit of a distributed scan.

"Conventionally, each data file comprises multiple splits" (Section 6.1.2);
a split covers a contiguous byte region of one file and knows its table/
partition so the worker can tag cache scopes correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.scope import CacheScope
from repro.presto.catalog import DataFile


@dataclass(frozen=True, slots=True)
class Split:
    """A contiguous region of one data file, bound for one worker."""

    file_id: str
    offset: int
    length: int
    schema: str
    table: str
    partition: str
    n_columns: int = 16
    n_row_groups: int = 8
    # the partition's cache scope, built once: every read of the split tags
    # its pages with it
    scope: CacheScope = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise ValueError(f"bad split range {self.offset}/{self.length}")
        object.__setattr__(
            self, "scope",
            CacheScope.for_partition(self.schema, self.table, self.partition),
        )

    @property
    def qualified_table(self) -> str:
        return f"{self.schema}.{self.table}"


def splits_for_file(
    data_file: DataFile,
    *,
    schema: str,
    table: str,
    partition: str,
    target_split_size: int = 64 * 1024 * 1024,
) -> list[Split]:
    """Cut one file into splits of roughly ``target_split_size`` bytes."""
    if target_split_size <= 0:
        raise ValueError(f"target_split_size must be positive, got {target_split_size}")
    splits = []
    offset = 0
    while offset < data_file.size:
        length = min(target_split_size, data_file.size - offset)
        splits.append(
            Split(
                file_id=data_file.file_id,
                offset=offset,
                length=length,
                schema=schema,
                table=table,
                partition=partition,
                n_columns=data_file.n_columns,
                n_row_groups=data_file.n_row_groups,
            )
        )
        offset += length
    return splits
