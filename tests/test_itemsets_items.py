"""Tests of items and the typed item dictionary."""

from __future__ import annotations

import pytest

from repro.errors import MiningError
from repro.itemsets.items import Item, ItemDictionary, ItemKind


class TestItem:
    def test_str_rendering(self):
        assert str(Item("sex", "female")) == "sex=female"

    def test_items_are_hashable_and_ordered(self):
        a, b = Item("a", 1), Item("b", 0)
        assert a < b
        assert len({a, b, Item("a", 1)}) == 2


class TestItemDictionary:
    @pytest.fixture()
    def dictionary(self):
        d = ItemDictionary()
        d.add(Item("sex", "F"), ItemKind.SA)
        d.add(Item("sex", "M"), ItemKind.SA)
        d.add(Item("region", "north"), ItemKind.CA)
        return d

    def test_add_is_idempotent(self, dictionary):
        assert dictionary.add(Item("sex", "F"), ItemKind.SA) == 0
        assert len(dictionary) == 3

    def test_kind_conflict_rejected(self, dictionary):
        with pytest.raises(MiningError, match="already registered"):
            dictionary.add(Item("sex", "F"), ItemKind.CA)

    def test_id_round_trip(self, dictionary):
        item_id = dictionary.id_of(Item("region", "north"))
        assert dictionary.item(item_id) == Item("region", "north")
        assert dictionary.kind(item_id) is ItemKind.CA

    def test_unknown_item_raises(self, dictionary):
        with pytest.raises(MiningError, match="unknown item"):
            dictionary.id_of(Item("nope", "x"))

    def test_out_of_range_id_raises(self, dictionary):
        with pytest.raises(MiningError):
            dictionary.item(99)
        with pytest.raises(MiningError):
            dictionary.kind(-1)

    def test_kind_partitions(self, dictionary):
        assert dictionary.sa_ids == [0, 1]
        assert dictionary.ca_ids == [2]

    def test_split(self, dictionary):
        sa, ca = dictionary.split([0, 2])
        assert sa == frozenset({0})
        assert ca == frozenset({2})

    def test_describe(self, dictionary):
        assert dictionary.describe([2, 0]) == "region=north, sex=F"
        assert dictionary.describe([]) == "*"

    def test_contains(self, dictionary):
        assert Item("sex", "F") in dictionary
        assert Item("sex", "X") not in dictionary
