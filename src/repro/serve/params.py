"""Query-parameter parsing shared by the serve CLI and the HTTP tier.

Both front ends accept coordinates as repeatable ``attribute=value``
strings (``--sa sex=F --sa age=young`` on the CLI,
``?sa=sex%3DF&sa=age%3Dyoung`` on the wire) and both must coerce the
string values to the vocabulary's exact item types before encoding a
query — ``n_boards=2`` must look up ``Item('n_boards', 2)``, not
``Item('n_boards', '2')``.  Keeping the parsing and coercion here, in
one place, is what makes the HTTP endpoints byte-identical to the
in-process service: there is no second, subtly different parser.
"""

from __future__ import annotations

from repro.itemsets.items import ItemDictionary


def parse_coordinate_pairs(
    pairs: "list[str] | None",
) -> "dict[str, object] | None":
    """``["a=x", "a=y", "b=z"]`` -> ``{"a": ["x", "y"], "b": "z"}``.

    A repeated attribute becomes a multi-valued containment constraint.
    Raises :class:`ValueError` on a pair without ``=`` or without an
    attribute name; the callers map that to their own bad-request
    surface (``SystemExit`` on the CLI, HTTP 400 on the wire).
    """
    if not pairs:
        return None
    out: "dict[str, object]" = {}
    for pair in pairs:
        attr, sep, value = pair.partition("=")
        if not sep or not attr:
            raise ValueError(
                f"bad coordinate {pair!r}: expected attribute=value"
            )
        if attr in out:  # repeated attribute -> multi-valued containment
            previous = out[attr]
            values = (
                list(previous) if isinstance(previous, list) else [previous]
            )
            values.append(value)
            out[attr] = values
        else:
            out[attr] = value
    return out


def typed_values(dictionary: ItemDictionary
                 ) -> "dict[str, dict[str, object]]":
    """``{attribute: {str(value): value}}``, the lookup
    :func:`typed_coordinates` reads; each opened
    :class:`~repro.serve.service.CubeService` builds it once."""
    typed: "dict[str, dict[str, object]]" = {}
    for item_id in range(len(dictionary)):
        item = dictionary.item(item_id)
        typed.setdefault(item.attribute, {})[str(item.value)] = item.value
    return typed


def typed_coordinates(
    values: "dict[str, dict[str, object]]",
    mapping: "dict[str, object] | None",
) -> "dict[str, object] | None":
    """Coerce string coordinate values to the vocabulary's exact types.

    ``values`` is the served cube's :func:`typed_values` lookup.
    ``encode_query`` matches items by exact (attribute, value) pairs,
    and vocabularies may hold int/bool/float values.  Values whose
    string rendering matches no vocabulary entry pass through unchanged
    (the unknown-coordinate error stays informative).  The HTTP tier
    calls this only on a cache miss: its cache holds response bytes.
    """
    if mapping is None:
        return None
    out: "dict[str, object]" = {}
    for attr, value in mapping.items():
        lookup = values.get(attr, {})
        if isinstance(value, list):
            out[attr] = [lookup.get(v, v) for v in value]
        else:
            out[attr] = lookup.get(value, value)
    return out
