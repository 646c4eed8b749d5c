"""Cross-validation of eclat against brute force and the FP-growth oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MiningError
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.miner import absolute_minsup, mine
from repro.itemsets.transactions import TransactionDatabase

from tests.oracles import frequent_itemsets_bruteforce, mine_fpgrowth


def make_db(rows, n_items=None):
    """Build a TransactionDatabase from raw integer rows."""
    size = n_items if n_items is not None else (
        max((max(r) for r in rows if r), default=-1) + 1
    )
    dictionary = ItemDictionary()
    for i in range(size):
        dictionary.add(Item("x", i), ItemKind.SA)
    return TransactionDatabase([tuple(r) for r in rows], dictionary)


CLASSIC_DB = [
    (0, 1, 2),
    (0, 1),
    (0, 2),
    (0,),
    (1, 2),
    (1,),
    (2,),
    (0, 1, 2),
]


class TestClassicExample:
    """Support counts verified by hand on an 8-transaction database."""

    @pytest.mark.parametrize("miner", [mine_eclat, mine_fpgrowth])
    def test_supports(self, miner):
        db = make_db(CLASSIC_DB)
        result = miner(db, 2)
        assert result[frozenset({0})] == 5
        assert result[frozenset({1})] == 5
        assert result[frozenset({2})] == 5
        assert result[frozenset({0, 1})] == 3
        assert result[frozenset({0, 2})] == 3
        assert result[frozenset({1, 2})] == 3
        assert result[frozenset({0, 1, 2})] == 2

    @pytest.mark.parametrize("miner", [mine_eclat, mine_fpgrowth])
    def test_minsup_prunes(self, miner):
        db = make_db(CLASSIC_DB)
        result = miner(db, 3)
        assert frozenset({0, 1, 2}) not in result
        assert frozenset({0, 1}) in result

    @pytest.mark.parametrize("miner", [mine_eclat, mine_fpgrowth])
    def test_max_len(self, miner):
        db = make_db(CLASSIC_DB)
        result = miner(db, 1, max_len=1)
        assert all(len(k) == 1 for k in result)

    @pytest.mark.parametrize("miner", [mine_eclat, mine_fpgrowth])
    def test_item_restriction(self, miner):
        db = make_db(CLASSIC_DB)
        result = miner(db, 1, items=[0, 1])
        assert all(k <= frozenset({0, 1}) for k in result)

    @pytest.mark.parametrize("miner", [mine_eclat, mine_fpgrowth])
    def test_minsup_validation(self, miner):
        db = make_db(CLASSIC_DB)
        with pytest.raises(MiningError):
            miner(db, 0)


class TestEclatCovers:
    def test_covers_match_supports(self):
        db = make_db(CLASSIC_DB)
        covers = mine_eclat(db, 2, with_covers=True)
        supports = mine_eclat(db, 2)
        assert set(covers) == set(supports)
        for itemset, cover in covers.items():
            assert int(cover.sum()) == supports[itemset]

    def test_cover_contents(self):
        db = make_db(CLASSIC_DB)
        covers = mine_eclat(db, 2, with_covers=True)
        expected = np.zeros(len(CLASSIC_DB), dtype=bool)
        for t, row in enumerate(CLASSIC_DB):
            if 0 in row and 1 in row:
                expected[t] = True
        assert covers[frozenset({0, 1})].tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# Property: eclat and the FP-growth oracle == brute force on random
# small databases.
# ---------------------------------------------------------------------------

@st.composite
def random_dbs(draw):
    n_items = draw(st.integers(1, 7))
    n_rows = draw(st.integers(1, 30))
    rows = [
        tuple(
            sorted(
                {
                    draw(st.integers(0, n_items - 1))
                    for _ in range(draw(st.integers(0, n_items)))
                }
            )
        )
        for _ in range(n_rows)
    ]
    minsup = draw(st.integers(1, max(1, n_rows // 2)))
    return make_db(rows, n_items), minsup


@given(random_dbs())
@settings(max_examples=60, deadline=None)
def test_all_miners_match_bruteforce(db_minsup):
    db, minsup = db_minsup
    expected = frequent_itemsets_bruteforce(db, minsup)
    assert mine_eclat(db, minsup) == expected
    assert mine_fpgrowth(db, minsup) == expected


@given(random_dbs(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_miners_agree_under_max_len(db_minsup, max_len):
    db, minsup = db_minsup
    expected = frequent_itemsets_bruteforce(db, minsup, max_len=max_len)
    assert mine_eclat(db, minsup, max_len=max_len) == expected
    assert mine_fpgrowth(db, minsup, max_len=max_len) == expected


class TestMineFacade:
    def test_relative_minsup(self):
        db = make_db(CLASSIC_DB)
        result = mine(db, 0.25)         # 25% of 8 rows -> 2
        assert result.minsup == 2

    def test_with_covers_returns_kept_covers(self):
        db = make_db(CLASSIC_DB)
        result = mine(db, 2, closed=True, with_covers=True)
        assert set(result.covers) == set(result.supports)
        for itemset, cover in result.covers.items():
            assert cover.support() == result.supports[itemset]

    def test_result_helpers(self):
        db = make_db(CLASSIC_DB)
        result = mine(db, 2)
        assert result.supports[frozenset({0})] == 5
        assert result.supports[frozenset({0, 1, 2})] == 2
        assert frozenset({5}) not in result.supports
        assert sum(len(itemset) == 2 for itemset in result.supports) == 3
        assert len(result) == 7

    def test_absolute_minsup_validation(self):
        assert absolute_minsup(0.5, 10) == 5
        assert absolute_minsup(0.01, 10) == 1
        assert absolute_minsup(3, 10) == 3
        assert absolute_minsup(3.0, 10) == 3    # integral float is fine
        with pytest.raises(MiningError):
            absolute_minsup(0.0, 10)
        with pytest.raises(MiningError):
            absolute_minsup(-1, 10)
        with pytest.raises(MiningError):
            absolute_minsup(2.5, 10)

    def test_absolute_minsup_non_integer_float_message(self):
        """Floats >= 1 with a fractional part get the dedicated message."""
        with pytest.raises(MiningError, match="non-integer float"):
            absolute_minsup(2.5, 10)
        with pytest.raises(MiningError, match="whole counts"):
            absolute_minsup(1.0001, 10)

    def test_absolute_minsup_out_of_range_message(self):
        """Non-positive and boundary values keep the generic message."""
        for bad in (0.0, -1, -0.5, 0, 1.0 - 1.0):
            with pytest.raises(MiningError,
                               match=r"fraction in \(0,1\) or an integer"):
                absolute_minsup(bad, 10)
