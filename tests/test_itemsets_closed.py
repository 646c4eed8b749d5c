"""Tests of closed-itemset utilities against brute-force oracles."""

from __future__ import annotations

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import random_final_table
from repro.itemsets.closed import closure_flags, filter_closed
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.miner import mine
from repro.itemsets.transactions import encode_table

from tests.oracles import (
    closed_bruteforce,
    closed_under_caps,
    closure_of,
    frequent_itemsets_bruteforce,
    verify_closed,
)
from tests.test_itemsets_miners import CLASSIC_DB, make_db, random_dbs


class TestFilterClosed:
    def test_hand_example(self):
        # Rows: {0,1} x3 and {0} x2 -> {1} (sup 3) is absorbed by {0,1}
        db = make_db([(0, 1), (0, 1), (0, 1), (0,), (0,)])
        supports = mine_eclat(db, 1)
        closed = filter_closed(supports)
        assert frozenset({1}) not in closed
        assert frozenset({0, 1}) in closed
        assert frozenset({0}) in closed   # support 5 > 3, so closed

    def test_matches_bruteforce_on_classic(self):
        db = make_db(CLASSIC_DB)
        supports = mine_eclat(db, 1)
        assert filter_closed(supports) == closed_bruteforce(supports)

    def test_closed_preserves_supports(self):
        db = make_db(CLASSIC_DB)
        supports = mine_eclat(db, 2)
        closed = filter_closed(supports)
        for itemset, support in closed.items():
            assert supports[itemset] == support


class TestClosureOperator:
    def test_closure_adds_implied_items(self):
        # Item 1 always co-occurs with item 0.
        db = make_db([(0, 1), (0, 1), (0,)])
        cover = db.cover_of([1])
        assert closure_of(db, cover) == frozenset({0, 1})

    def test_closure_of_closed_set_is_itself(self):
        db = make_db(CLASSIC_DB)
        supports = mine_eclat(db, 1)
        closed = filter_closed(supports)
        for itemset in closed:
            assert closure_of(db, db.cover_of(itemset)) == itemset

    def test_verify_closed_oracle(self):
        db = make_db(CLASSIC_DB)
        supports = mine_eclat(db, 1)
        closed = set(filter_closed(supports))
        verdicts = verify_closed(db, list(supports))
        for itemset, is_closed in verdicts.items():
            assert is_closed == (itemset in closed)


@given(random_dbs())
@settings(max_examples=50, deadline=None)
def test_filter_closed_matches_bruteforce(db_minsup):
    db, minsup = db_minsup
    supports = frequent_itemsets_bruteforce(db, minsup)
    assert filter_closed(dict(supports)) == closed_bruteforce(supports)


@given(random_dbs())
@settings(max_examples=50, deadline=None)
def test_closure_operator_is_idempotent_and_extensive(db_minsup):
    db, minsup = db_minsup
    supports = mine_eclat(db, minsup)
    for itemset in list(supports)[:20]:
        cover = db.cover_of(itemset)
        closure = closure_of(db, cover)
        assert itemset <= closure                       # extensive
        assert closure_of(db, db.cover_of(closure)) == closure  # idempotent
        # same cover
        assert db.cover_of(closure).support() == db.cover_of(itemset).support()


@given(random_dbs())
@settings(max_examples=40, deadline=None)
def test_closed_mine_flag_equals_post_filter(db_minsup):
    db, minsup = db_minsup
    from_flag = mine(db, minsup, closed=True).supports
    post = filter_closed(mine(db, minsup).supports)
    assert from_flag == post


@given(st.integers(2, 30), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_closure_flags_match_scalar_reference(n_rows, seed):
    # Few rows and skewed values make equal supports, so many
    # candidates are not closed; candidates go up to 2 SA and 2 CA
    # items, past the tighter caps.
    table, schema = random_final_table(
        n_rows, 3,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 3},
        multi_valued_ca={"mv": 3},
        seed=seed, skew=0.8,
    )
    db = encode_table(table, schema)
    candidates = {}
    for sa_part, ca_part in product(
        [c for k in range(3) for c in combinations(db.dictionary.sa_ids, k)],
        [c for k in range(3) for c in combinations(db.dictionary.ca_ids, k)],
    ):
        itemset = frozenset(sa_part + ca_part)
        candidates[itemset] = db.cover_of(itemset)
    for max_sa, max_ca in [(None, None), (1, 1), (2, 1), (1, 2), (2, 2)]:
        flags = closure_flags(db, candidates, max_sa=max_sa, max_ca=max_ca)
        assert flags == {
            itemset: closed_under_caps(db, itemset, cover, max_sa, max_ca)
            for itemset, cover in candidates.items()
        }
