"""Catalog: the schema -> table -> partition -> file hierarchy.

This is the hierarchy the cache mirrors as scopes (Section 4.4) and the
unit structure quota management and cache filters operate on (Sections 5.1,
5.2).  Files carry a size and a column count; contents live in a
:class:`~repro.storage.remote.DataSource` keyed by ``DataFile.file_id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class DataFile:
    """One columnar data file within a partition."""

    file_id: str
    size: int
    n_columns: int = 16
    n_row_groups: int = 8

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")
        if self.n_columns <= 0 or self.n_row_groups <= 0:
            raise ValueError("n_columns and n_row_groups must be positive")


@dataclass(slots=True)
class Partition:
    """One partition of a table."""

    name: str
    files: list[DataFile] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(f.size for f in self.files)


@dataclass(slots=True)
class TableDef:
    """One table: named partitions of data files."""

    schema: str
    name: str
    partitions: dict[str, Partition] = field(default_factory=dict)

    @property
    def qualified_name(self) -> str:
        return f"{self.schema}.{self.name}"

    @property
    def size(self) -> int:
        return sum(p.size for p in self.partitions.values())

    def all_files(self) -> list[tuple[str, DataFile]]:
        """``(partition_name, file)`` pairs across all partitions."""
        return [
            (partition.name, data_file)
            for partition in self.partitions.values()
            for data_file in partition.files
        ]


class Catalog:
    """All tables known to the coordinator."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}

    def add_table(self, table: TableDef) -> None:
        if table.qualified_name in self._tables:
            raise ValueError(f"duplicate table {table.qualified_name}")
        self._tables[table.qualified_name] = table

    def table(self, qualified_name: str) -> TableDef:
        return self._tables[qualified_name]

    def tables(self) -> list[TableDef]:
        return list(self._tables.values())

    def __contains__(self, qualified_name: str) -> bool:
        return qualified_name in self._tables

    @property
    def total_size(self) -> int:
        return sum(t.size for t in self._tables.values())


def build_table(
    schema: str,
    name: str,
    *,
    n_partitions: int,
    files_per_partition: int,
    file_size: int,
    n_columns: int = 16,
    n_row_groups: int = 8,
) -> TableDef:
    """Construct a uniformly laid-out table (the common test/bench shape)."""
    table = TableDef(schema=schema, name=name)
    for p in range(n_partitions):
        partition = Partition(name=f"ds={p:04d}")
        for f in range(files_per_partition):
            partition.files.append(
                DataFile(
                    file_id=f"{schema}/{name}/ds={p:04d}/part-{f:05d}.parquet",
                    size=file_size,
                    n_columns=n_columns,
                    n_row_groups=n_row_groups,
                )
            )
        table.partitions[partition.name] = partition
    return table
