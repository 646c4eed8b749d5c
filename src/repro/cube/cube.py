"""The multi-dimensional segregation data cube (paper Fig. 1).

A :class:`SegregationCube` answers the OLAP-style exploration the demo
walks through — point lookups, slicing, roll-up/drill-down navigation,
top-k ranking and tabular export — over a **columnar** cell store: cells
live in a :class:`~repro.cube.table.CellTable` (struct-of-arrays: packed
coordinate bitmasks, int64 count columns, one float64 column per index),
and every bulk query runs as array operations over whole columns —
subset-mask slicing, ``argpartition`` top-k — instead of walking
per-cell objects.  :class:`~repro.cube.cell.CellStats` remains the
per-cell API, materialised lazily from table rows on demand.

Cubes built in ``closed`` mode materialise only closed coordinates; an
attached *resolver* (provided by the builder) answers point queries for
any other frequent coordinate exactly, by intersecting item covers on
demand.

A built cube can be persisted with :func:`repro.store.dump_snapshot`
and reopened — optionally memory-mapped — by
:func:`repro.store.open_snapshot` without re-running ETL, mining or
fill; the reopened cube answers every query above from the stored
columns (no resolver: snapshots carry cells, not covers).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from repro.cube.cell import CellStats
from repro.cube.coordinates import (
    CellKey,
    coordinate_columns,
    describe_key,
    encode_query,
    parents_of,
)
from repro.cube.table import CellTable
from repro.itemsets.items import ItemDictionary, ItemKind

Resolver = Callable[[CellKey], Optional[CellStats]]


@dataclass
class CubeMetadata:
    """Provenance of a cube build."""

    index_names: list[str]
    min_population: int
    min_minority: int
    n_rows: int
    n_units: int
    mode: str
    backend: str
    build_seconds: float = 0.0
    extra: dict[str, object] = field(default_factory=dict)


class SegregationCube:
    """Container and query interface of the segregation data cube."""

    def __init__(
        self,
        cells: "Union[CellTable, dict[CellKey, CellStats]]",
        dictionary: ItemDictionary,
        metadata: CubeMetadata,
        resolver: "Resolver | None" = None,
    ):
        if isinstance(cells, CellTable):
            self._table = cells
        else:
            # Per-object dicts (naive builder, hand-built cubes) are
            # converted into the columnar store at construction.
            self._table = CellTable.from_cells(
                cells, metadata.index_names, len(dictionary)
            )
        self.dictionary = dictionary
        self.metadata = metadata
        self._resolver = resolver

    @property
    def table(self) -> CellTable:
        """The underlying struct-of-arrays cell store."""
        return self._table

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[CellStats]:
        return (self._table.stats(i) for i in range(len(self._table)))

    def __contains__(self, key: CellKey) -> bool:
        return key in self._table

    def keys(self) -> Iterator[CellKey]:
        return iter(self._table.keys)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def locate(self, key: CellKey) -> "int | CellStats | None":
        """The row-level point lookup: a key's row, else the resolver's
        cell for it, else None.

        The navigation queries' row-level forms return such *hits*: a
        row of :attr:`table`, or, on a live closed-mode cube, a
        :class:`CellStats` the resolver computed for a key that has no
        row.
        """
        row = self._table.row_of(key)
        if row is not None:
            return row
        if self._resolver is not None:
            return self._resolver(key)
        return None

    def _stats(self, hit: "int | CellStats | None") -> "CellStats | None":
        return self._table.stats(hit) if isinstance(hit, int) else hit

    def cell_by_key(self, key: CellKey) -> "CellStats | None":
        """Materialised cell, or resolver-computed cell, or None."""
        return self._stats(self.locate(key))

    def cell(
        self,
        sa: "Mapping[str, object] | None" = None,
        ca: "Mapping[str, object] | None" = None,
    ) -> "CellStats | None":
        """Point query with user-level coordinates.

        ``sa={'sex': 'F', 'age': 'young'}, ca={'region': 'north'}``
        addresses the Fig. 1 cell for young women in the north; attributes
        left out are at ``⋆``.
        """
        key = encode_query(self.dictionary, sa=sa, ca=ca)
        return self.cell_by_key(key)

    def value(
        self,
        index_name: str,
        sa: "Mapping[str, object] | None" = None,
        ca: "Mapping[str, object] | None" = None,
    ) -> float:
        """Index value at the given coordinates (nan when absent)."""
        key = encode_query(self.dictionary, sa=sa, ca=ca)
        return self.value_by_key(index_name, key)

    def value_by_key(self, index_name: str, key: CellKey) -> float:
        """Index value at an encoded key, read straight off the column.

        Materialised cells cost one array access — no
        :class:`CellStats` is built; missing cells go through the lazy
        resolver (nan when below thresholds or absent).
        """
        hit = self.locate(key)
        if isinstance(hit, int):
            return self._table.value_at(hit, index_name)
        return hit.value(index_name) if hit is not None else float("nan")

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------

    # Each query has one row-level form; its CellStats form reads the
    # rows it returns.

    def children_rows(self, key: CellKey) -> "list[int]":
        """Rows refining ``key`` by exactly one item."""
        sa, ca = key
        mask = self._table.superset_mask(sa, ca)
        mask &= self._table.depths == (len(sa) + len(ca) + 1)
        return np.flatnonzero(mask).tolist()

    def children(self, key: CellKey) -> "list[CellStats]":
        """Materialised cells refining ``key`` by exactly one item."""
        return [self._table.stats(row) for row in self.children_rows(key)]

    def parent_rows(self, key: CellKey) -> "list[int | CellStats]":
        """Hits (see :meth:`locate`) of ``key``'s roll-up neighbours."""
        hits = (self.locate(parent) for parent in parents_of(key))
        return [hit for hit in hits if hit is not None]

    def parents(self, key: CellKey) -> "list[CellStats]":
        """Materialised roll-up neighbours of ``key``."""
        return [self._stats(hit) for hit in self.parent_rows(key)]

    def slice_rows(self, key: CellKey) -> "list[int]":
        """Rows whose coordinates *include* ``key``'s."""
        return np.flatnonzero(self._table.superset_mask(*key)).tolist()

    def slice(
        self,
        sa: "Mapping[str, object] | None" = None,
        ca: "Mapping[str, object] | None" = None,
    ) -> "list[CellStats]":
        """All materialised cells whose coordinates *include* the given ones."""
        key = encode_query(self.dictionary, sa=sa, ca=ca)
        return [self._table.stats(row) for row in self.slice_rows(key)]

    def top(
        self,
        index_name: str,
        k: int = 10,
        min_minority: int = 0,
        min_population: int = 0,
        min_units: int = 2,
    ) -> "list[CellStats]":
        """Rank proper cells by one index, highest first (the discovery
        primitive).

        Context-only cells and cells whose index is undefined are
        excluded; ties break deterministically on the cell description.
        The ranking is columnar: filters are boolean masks and the
        top-``k`` cut is an ``argpartition``, so only cells tied at the
        boundary pay for coordinate decoding.
        """
        table = self._table
        mask = (
            ~table.context_only_mask()
            & table.defined_mask(index_name)
            & (table.minority >= min_minority)
            & (table.population >= min_population)
            & (table.n_units >= min_units)
        )
        rows = table.top_rows(
            index_name,
            k,
            mask,
            tie_break=lambda row: describe_key(
                table.key_at(row), self.dictionary
            ),
        )
        return [self._table.stats(i) for i in rows]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def sa_attributes(self) -> "list[str]":
        """SA attribute names present in the dictionary."""
        return sorted(
            {
                self.dictionary.item(i).attribute
                for i in self.dictionary.ids_of_kind(ItemKind.SA)
            }
        )

    def ca_attributes(self) -> "list[str]":
        """CA attribute names present in the dictionary."""
        return sorted(
            {
                self.dictionary.item(i).attribute
                for i in self.dictionary.ids_of_kind(ItemKind.CA)
            }
        )

    def to_rows(self) -> "list[dict[str, object]]":
        """Flatten the cube for CSV/xlsx export (the ``cube.csv`` artefact).

        One row per cell: attribute columns (``*`` for wildcards), then
        T, M, P, n_units and one column per index — read straight from
        the table columns, no per-cell objects.
        """
        sa_attrs = self.sa_attributes()
        ca_attrs = self.ca_attributes()
        table = self._table
        depths = table.depths
        order = sorted(
            range(len(table)),
            key=lambda i: (
                int(depths[i]),
                describe_key(table.keys[i], self.dictionary),
            ),
        )
        rows = []
        for i in order:
            row: dict[str, object] = coordinate_columns(
                table.keys[i], self.dictionary, sa_attrs, ca_attrs
            )
            population = int(table.population[i])
            minority = int(table.minority[i])
            row["T"] = population
            row["M"] = minority
            row["P"] = (
                round(minority / population, 6) if population > 0 else ""
            )
            row["units"] = int(table.n_units[i])
            for name in self.metadata.index_names:
                value = table.value_at(i, name)
                row[name] = round(value, 6) if not math.isnan(value) else ""
            rows.append(row)
        return rows

    def describe(self, key: CellKey) -> str:
        """Human-readable address of a cell."""
        return describe_key(key, self.dictionary)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"SegregationCube({len(self._table)} cells, "
            f"indexes={self.metadata.index_names}, mode={self.metadata.mode})"
        )


def check_same_cells(a: "SegregationCube", b: "SegregationCube",
                     atol: float = 1e-9) -> "list[str]":
    """Compare two cubes cell-by-cell; return human-readable differences.

    Used by the equivalence tests (itemset-driven vs naive builder), by
    the ablation benchmarks and by the snapshot parity checks (live
    cube vs reopened snapshot); an empty list means the cubes agree.
    Shared cells are located with O(1) :meth:`CellTable.row_of` lookups
    and compared straight off the columns — no per-cell objects.
    """
    problems = []
    ta, tb = a.table, b.table
    keys_a, keys_b = set(a.keys()), set(b.keys())
    for key in keys_a - keys_b:
        problems.append(f"only in first: {a.describe(key)}")
    for key in keys_b - keys_a:
        problems.append(f"only in second: {b.describe(key)}")
    for key in keys_a & keys_b:
        i, j = ta.row_of(key), tb.row_of(key)
        assert i is not None and j is not None
        counts_a = (int(ta.population[i]), int(ta.minority[i]))
        counts_b = (int(tb.population[j]), int(tb.minority[j]))
        if counts_a != counts_b:
            problems.append(
                f"{a.describe(key)}: counts differ "
                f"({counts_a[0]},{counts_a[1]}) vs "
                f"({counts_b[0]},{counts_b[1]})"
            )
            continue
        for name in a.metadata.index_names:
            va, vb = ta.value_at(i, name), tb.value_at(j, name)
            if math.isnan(va) and math.isnan(vb):
                continue
            if math.isnan(va) != math.isnan(vb) or abs(va - vb) > atol:
                problems.append(
                    f"{a.describe(key)}: index {name} differs {va} vs {vb}"
                )
    return problems
