"""Items and the typed item dictionary.

The SegregationDataCubeBuilder encodes cube coordinates as itemsets of
``attribute=value`` items (paper §2).  Items are *typed*: an item either
describes the minority subgroup (kind SA) or the context (kind CA); a
mixed itemset therefore splits uniquely into SA and CA parts — the cell
coordinates ``(A, B)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Union

from repro.errors import MiningError

ItemValue = Union[str, int, float, bool]


class ItemKind(enum.Enum):
    """Whether an item constrains the minority (SA) or the context (CA)."""

    SA = "SA"
    CA = "CA"


@dataclass(frozen=True, order=True)
class Item:
    """An ``attribute = value`` pair."""

    attribute: str
    value: ItemValue

    def __str__(self) -> str:
        return f"{self.attribute}={self.value}"


class ItemDictionary:
    """Bidirectional mapping between :class:`Item` and dense integer ids.

    Ids are assigned in insertion order; each id carries an
    :class:`ItemKind`.  The dictionary guarantees one id per distinct
    item and rejects re-registration under a different kind.
    """

    def __init__(self) -> None:
        self._items: list[Item] = []
        self._kinds: list[ItemKind] = []
        self._ids: dict[Item, int] = {}

    def add(self, item: Item, kind: ItemKind) -> int:
        """Register ``item`` (idempotent) and return its id."""
        existing = self._ids.get(item)
        if existing is not None:
            if self._kinds[existing] is not kind:
                raise MiningError(
                    f"item {item} already registered as "
                    f"{self._kinds[existing].value}, cannot re-register as "
                    f"{kind.value}"
                )
            return existing
        new_id = len(self._items)
        self._items.append(item)
        self._kinds.append(kind)
        self._ids[item] = new_id
        return new_id

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return item in self._ids

    def id_of(self, item: Item) -> int:
        """Return the id of ``item``; raises :class:`MiningError` if absent."""
        try:
            return self._ids[item]
        except KeyError:
            raise MiningError(f"unknown item {item}") from None

    def item(self, item_id: int) -> Item:
        """Return the :class:`Item` with the given id."""
        if not 0 <= item_id < len(self._items):
            raise MiningError(f"item id {item_id} out of range")
        return self._items[item_id]

    def kind(self, item_id: int) -> ItemKind:
        """Return the kind of the item with the given id."""
        if not 0 <= item_id < len(self._kinds):
            raise MiningError(f"item id {item_id} out of range")
        return self._kinds[item_id]

    def ids_of_kind(self, kind: ItemKind) -> list[int]:
        """All item ids of the given kind, ascending."""
        return [i for i, k in enumerate(self._kinds) if k is kind]

    @property
    def sa_ids(self) -> list[int]:
        """Ids of segregation-attribute items."""
        return self.ids_of_kind(ItemKind.SA)

    @property
    def ca_ids(self) -> list[int]:
        """Ids of context-attribute items."""
        return self.ids_of_kind(ItemKind.CA)

    def split(self, itemset: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
        """Split an itemset into its (SA, CA) parts."""
        sa, ca = set(), set()
        for i in itemset:
            if self.kind(i) is ItemKind.SA:
                sa.add(i)
            else:
                ca.add(i)
        return frozenset(sa), frozenset(ca)

    def describe(self, itemset: Iterable[int]) -> str:
        """Human-readable rendering, e.g. ``sex=female, region=north``."""
        parts = sorted(str(self._items[i]) for i in itemset)
        return ", ".join(parts) if parts else "*"
