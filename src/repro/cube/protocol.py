"""CubeLike: the one protocol shared by live cubes and opened snapshots.

Everything downstream of the cube — the explorer, the report writers
(text, pivot, html, xlsx), cross-cube comparison, the serving layer —
consumes cubes through this read-only surface.  Both providers satisfy
it with the same class (:class:`~repro.cube.cube.SegregationCube`), but
through two very different storage paths:

* a **live cube** straight out of
  :class:`~repro.cube.builder.SegregationDataCubeBuilder`, owning its
  arrays (and, in ``closed`` mode, carrying a lazy resolver);
* an **opened snapshot** from :func:`repro.store.open_snapshot`, whose
  arrays are read-only (optionally memory-mapped) views over a
  snapshot directory, with keys decoded from the stored bitmasks on use.

Annotating consumers with :class:`CubeLike` (instead of the concrete
class) documents that they must not rely on builder-only state — the
transaction database, covers, or the lazy resolver — which is exactly
what makes zero-rebuild serving possible.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.cube.cell import CellStats
    from repro.cube.coordinates import CellKey
    from repro.cube.cube import CubeMetadata
    from repro.cube.table import CellTable
    from repro.itemsets.items import ItemDictionary


@runtime_checkable
class CubeLike(Protocol):
    """Read-only query surface of a segregation cube."""

    dictionary: "ItemDictionary"
    metadata: "CubeMetadata"

    @property
    def table(self) -> "CellTable": ...

    def __len__(self) -> int: ...

    def __contains__(self, key: "CellKey") -> bool: ...

    def keys(self) -> "Iterator[CellKey]": ...

    def cell_by_key(self, key: "CellKey") -> "CellStats | None": ...

    def cell(
        self,
        sa: "Mapping[str, object] | None" = None,
        ca: "Mapping[str, object] | None" = None,
    ) -> "CellStats | None": ...

    def value(
        self,
        index_name: str,
        sa: "Mapping[str, object] | None" = None,
        ca: "Mapping[str, object] | None" = None,
    ) -> float: ...

    def value_by_key(self, index_name: str, key: "CellKey") -> float: ...

    def children(self, key: "CellKey") -> "list[CellStats]": ...

    def parents(self, key: "CellKey") -> "list[CellStats]": ...

    def slice(
        self,
        sa: "Mapping[str, object] | None" = None,
        ca: "Mapping[str, object] | None" = None,
    ) -> "list[CellStats]": ...

    def top(
        self,
        index_name: str,
        k: int = 10,
        min_minority: int = 0,
        min_population: int = 0,
        min_units: int = 2,
        ascending: bool = False,
    ) -> "list[CellStats]": ...

    def sa_attributes(self) -> "list[str]": ...

    def ca_attributes(self) -> "list[str]": ...

    def to_rows(self) -> "list[dict[str, object]]": ...

    def describe(self, key: "CellKey") -> str: ...
