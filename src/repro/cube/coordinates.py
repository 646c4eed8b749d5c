"""Cube coordinates: typed itemsets with ``⋆`` wildcards.

A cube cell is addressed by a pair of itemsets (paper §2): ``A`` over
segregation attributes (the minority subgroup) and ``B`` over context
attributes (the context).  An attribute absent from the itemset is at
the wildcard granularity ``⋆``.  Multi-valued attributes may contribute
several items (``sector ⊇ {electricity, transports}``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import CubeError
from repro.itemsets.items import Item, ItemDictionary, ItemKind

#: Rendering of the wildcard coordinate.
STAR = "*"

CellKey = tuple[frozenset[int], frozenset[int]]


def make_key(sa_items: Iterable[int], ca_items: Iterable[int]) -> CellKey:
    """Canonical cell key from SA and CA item ids."""
    return (frozenset(sa_items), frozenset(ca_items))


def encode_query(
    dictionary: ItemDictionary,
    sa: "Mapping[str, object] | None" = None,
    ca: "Mapping[str, object] | None" = None,
) -> CellKey:
    """Encode user-level coordinates into a cell key.

    ``sa`` / ``ca`` map attribute names to a single value or an iterable
    of values (for multi-valued containment constraints).  Attributes not
    mentioned are at ``⋆``.  Unknown attribute=value pairs raise
    :class:`CubeError` — they can never match a cell.
    """

    def encode(mapping: "Mapping[str, object] | None",
               kind: ItemKind) -> frozenset[int]:
        if not mapping:
            return frozenset()
        ids = set()
        for attr, value in mapping.items():
            values = (
                value
                if isinstance(value, (list, tuple, set, frozenset))
                else [value]
            )
            for v in values:
                item = Item(attr, v)  # type: ignore[arg-type]
                if item not in dictionary:
                    raise CubeError(f"unknown coordinate {item}")
                item_id = dictionary.id_of(item)
                if dictionary.kind(item_id) is not kind:
                    raise CubeError(
                        f"coordinate {item} is a {dictionary.kind(item_id).value} "
                        f"item, used as {kind.value}"
                    )
                ids.add(item_id)
        return frozenset(ids)

    return (encode(sa, ItemKind.SA), encode(ca, ItemKind.CA))


def decode_part(items: frozenset[int], dictionary: ItemDictionary
                ) -> dict[str, object]:
    """Decode item ids into ``{attribute: value-or-tuple}``.

    Single-item attributes decode to their value; attributes hit by
    several items (multi-valued containment) decode to a sorted tuple.
    """
    by_attr: dict[str, list] = {}
    for item_id in items:
        item = dictionary.item(item_id)
        by_attr.setdefault(item.attribute, []).append(item.value)
    return {
        attr: values[0] if len(values) == 1 else tuple(sorted(map(str, values)))
        for attr, values in by_attr.items()
    }


def describe_key(key: CellKey, dictionary: ItemDictionary) -> str:
    """Human-readable cell address, e.g. ``[sex=female | region=north]``."""
    sa, ca = key
    return (
        f"[{dictionary.describe(sa)} | {dictionary.describe(ca)}]"
    )


def coordinate_columns(
    key: CellKey,
    dictionary: ItemDictionary,
    sa_attrs: "list[str]",
    ca_attrs: "list[str]",
) -> dict[str, str]:
    """Flatten a key into per-attribute display columns with ``*`` defaults."""
    sa, ca = key
    decoded = decode_part(sa, dictionary)
    decoded.update(decode_part(ca, dictionary))
    out = {}
    for attr in sa_attrs + ca_attrs:
        value = decoded.get(attr, STAR)
        if isinstance(value, tuple):
            value = "{" + ",".join(value) + "}"
        out[attr] = str(value)
    return out


def parents_of(key: CellKey) -> "list[CellKey]":
    """All keys obtained by removing one item (roll-up neighbours)."""
    sa, ca = key
    out: list[CellKey] = []
    for item in sa:
        out.append((sa - {item}, ca))
    for item in ca:
        out.append((sa, ca - {item}))
    return out
