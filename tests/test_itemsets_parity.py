"""Eclat against the FP-growth oracle on inputs too large for brute force.

Eclat is cross-validated against brute force elsewhere
(``test_itemsets_miners``), but only on databases small enough to
enumerate the powerset.  Here the FP-growth reference in
``tests/oracles.py`` — a tree miner sharing no code with eclat — checks
it on larger, denser, hypothesis-generated databases: more items, more
rows, restricted item universes and length caps, where brute force is
unaffordable but agreement still pins both down (a drift in either
shows up as a diff).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.eclat import mine_eclat
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.transactions import TransactionDatabase

from tests.oracles import mine_fpgrowth


def build_db(rows, n_items):
    dictionary = ItemDictionary()
    for i in range(n_items):
        dictionary.add(Item("x", i), ItemKind.SA)
    return TransactionDatabase([tuple(r) for r in rows], dictionary)


@st.composite
def parity_cases(draw):
    n_items = draw(st.integers(4, 14))
    n_rows = draw(st.integers(10, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.1, 0.6))
    rng = np.random.default_rng(seed)
    rows = [
        tuple(sorted(np.flatnonzero(rng.random(n_items) < density)))
        for _ in range(n_rows)
    ]
    minsup = draw(st.integers(1, max(1, n_rows // 3)))
    return build_db(rows, n_items), minsup


@given(parity_cases())
@settings(max_examples=50, deadline=None)
def test_fpgrowth_matches_eclat(case):
    db, minsup = case
    assert mine_fpgrowth(db, minsup) == mine_eclat(db, minsup)


@given(parity_cases(), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_fpgrowth_matches_eclat_under_max_len(case, max_len):
    db, minsup = case
    assert (
        mine_fpgrowth(db, minsup, max_len=max_len)
        == mine_eclat(db, minsup, max_len=max_len)
    )


@given(parity_cases())
@settings(max_examples=30, deadline=None)
def test_fpgrowth_matches_eclat_on_item_subset(case):
    db, minsup = case
    items = list(range(0, len(db.dictionary), 2))
    assert (
        mine_fpgrowth(db, minsup, items=items)
        == mine_eclat(db, minsup, items=items)
    )


@given(parity_cases())
@settings(max_examples=20, deadline=None)
def test_parallel_eclat_matches_fpgrowth(case):
    """Transitivity check: the workers= path agrees with fpgrowth too."""
    db, minsup = case
    assert mine_fpgrowth(db, minsup) == dict(mine_eclat(db, minsup, workers=2))
