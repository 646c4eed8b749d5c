"""Tests of cell coordinates, keys and wildcard handling."""

from __future__ import annotations

import pytest

from repro.cube.coordinates import (
    coordinate_columns,
    decode_part,
    describe_key,
    encode_query,
    make_key,
    parents_of,
)
from repro.errors import CubeError
from repro.itemsets.items import Item, ItemDictionary, ItemKind


@pytest.fixture()
def dictionary():
    d = ItemDictionary()
    d.add(Item("sex", "F"), ItemKind.SA)        # 0
    d.add(Item("sex", "M"), ItemKind.SA)        # 1
    d.add(Item("age", "young"), ItemKind.SA)    # 2
    d.add(Item("region", "north"), ItemKind.CA) # 3
    d.add(Item("sector", "a"), ItemKind.CA)     # 4
    d.add(Item("sector", "b"), ItemKind.CA)     # 5
    return d


class TestEncodeQuery:
    def test_single_values(self, dictionary):
        key = encode_query(dictionary, sa={"sex": "F"}, ca={"region": "north"})
        assert key == (frozenset({0}), frozenset({3}))

    def test_star_is_empty(self, dictionary):
        assert encode_query(dictionary) == (frozenset(), frozenset())
        assert encode_query(dictionary, sa={}) == (frozenset(), frozenset())

    def test_multivalue_containment(self, dictionary):
        key = encode_query(dictionary, ca={"sector": ["a", "b"]})
        assert key == (frozenset(), frozenset({4, 5}))

    def test_unknown_value_raises(self, dictionary):
        with pytest.raises(CubeError, match="unknown coordinate"):
            encode_query(dictionary, sa={"sex": "X"})

    def test_kind_mismatch_raises(self, dictionary):
        with pytest.raises(CubeError, match="used as"):
            encode_query(dictionary, sa={"region": "north"})
        with pytest.raises(CubeError):
            encode_query(dictionary, ca={"sex": "F"})


class TestDecodeAndDescribe:
    def test_decode_single(self, dictionary):
        decoded = decode_part(frozenset({0, 3}), dictionary)
        assert decoded == {"sex": "F", "region": "north"}

    def test_decode_multi(self, dictionary):
        decoded = decode_part(frozenset({4, 5}), dictionary)
        assert decoded == {"sector": ("a", "b")}

    def test_describe_key(self, dictionary):
        key = make_key({0}, {3})
        assert describe_key(key, dictionary) == "[sex=F | region=north]"
        assert describe_key(make_key([], []), dictionary) == "[* | *]"

    def test_coordinate_columns_with_stars(self, dictionary):
        key = make_key({0}, {4, 5})
        cols = coordinate_columns(
            key, dictionary, ["sex", "age"], ["region", "sector"]
        )
        assert cols == {
            "sex": "F",
            "age": "*",
            "region": "*",
            "sector": "{a,b}",
        }


class TestLattice:
    def test_parents_of_removes_one_item(self):
        key = make_key({0, 2}, {3})
        parents = parents_of(key)
        assert (frozenset({2}), frozenset({3})) in parents
        assert (frozenset({0}), frozenset({3})) in parents
        assert (frozenset({0, 2}), frozenset()) in parents
        assert len(parents) == 3
