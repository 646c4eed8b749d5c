"""``workers=``: multiprocess eclat mining, bit-exact vs sequential.

Every parity test asserts *dict equality including iteration order* —
the parallel miner splices per-worker emissions back into root order,
so its output dict must be indistinguishable from the sequential DFS,
itemset by itemset, support by support, position by position.  Edge
cases: one worker, more workers than root items, closed mode, covers,
restricted (``within=``/temporal) databases, and shared-memory segment
cleanup.  The pool's failure surfaces are in
``test_pool.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import _pool
from repro.itemsets import parallel as ip
from repro.itemsets.closed import filter_closed, mine_closed
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.transactions import TransactionDatabase


def make_db(rows, n_items=None):
    size = n_items if n_items is not None else (
        max((max(r) for r in rows if r), default=-1) + 1
    )
    dictionary = ItemDictionary()
    for i in range(size):
        dictionary.add(Item("x", i), ItemKind.SA)
    return TransactionDatabase([tuple(r) for r in rows], dictionary)


def random_rows(rng, n_rows, n_items, density=0.4):
    return [
        tuple(sorted(np.flatnonzero(rng.random(n_items) < density)))
        for _ in range(n_rows)
    ]


def assert_same_ordered(expected, got):
    """Dict equality plus identical iteration order."""
    assert list(got.keys()) == list(expected.keys())
    for key in expected:
        e, g = expected[key], got[key]
        if isinstance(e, (int, np.integer)):
            assert e == g
        else:                               # covers
            assert e.tolist() == g.tolist()


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_parallel_bit_identity(workers):
    rng = np.random.default_rng(17)
    db = make_db(random_rows(rng, 60, 9))
    expected = mine_eclat(db, 3)
    got = mine_eclat(db, 3, workers=workers)
    assert_same_ordered(expected, got)


@pytest.mark.parametrize("workers", [2, 8])
def test_parallel_with_covers(workers):
    rng = np.random.default_rng(23)
    db = make_db(random_rows(rng, 50, 8))
    expected = mine_eclat(db, 2, with_covers=True)
    got = mine_eclat(db, 2, with_covers=True, workers=workers)
    assert_same_ordered(expected, got)


def test_parallel_more_workers_than_roots():
    db = make_db([(0, 1), (0, 1), (1, 2), (0, 2)])
    expected = mine_eclat(db, 1)
    got = mine_eclat(db, 1, workers=16)
    assert_same_ordered(expected, got)


def test_parallel_respects_items_and_max_len():
    rng = np.random.default_rng(31)
    db = make_db(random_rows(rng, 70, 10))
    expected = mine_eclat(db, 2, items=[0, 2, 4, 6], max_len=2)
    got = mine_eclat(db, 2, items=[0, 2, 4, 6], max_len=2, workers=3)
    assert_same_ordered(expected, got)


def test_parallel_within_restricted_view():
    rng = np.random.default_rng(37)
    db = make_db(random_rows(rng, 80, 8))
    within = db.cover_of(frozenset({0}))
    expected = mine_eclat(db, 2, within=within)
    got = mine_eclat(db, 2, within=within, workers=2)
    assert_same_ordered(expected, got)


def test_parallel_on_restricted_database():
    rng = np.random.default_rng(41)
    db = make_db(random_rows(rng, 90, 8))
    active = np.arange(len(db)) % 3 != 0
    restricted = db.restrict(active)
    expected = mine_eclat(restricted, 2)
    got = mine_eclat(restricted, 2, workers=2)
    assert_same_ordered(expected, got)


def test_parallel_no_frequent_items():
    db = make_db([(0,), (1,)])
    assert mine_eclat(db, 2, workers=2) == {}


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_closed_parallel_bit_identity(workers):
    rng = np.random.default_rng(43)
    db = make_db(random_rows(rng, 60, 9))
    expected = mine_closed(db, 3)
    got = mine_closed(db, 3, workers=workers)
    assert_same_ordered(expected, got)


def test_closed_parallel_with_covers():
    rng = np.random.default_rng(47)
    db = make_db(random_rows(rng, 50, 8))
    expected = mine_closed(db, 2, with_covers=True)
    got = mine_closed(db, 2, with_covers=True, workers=2)
    assert_same_ordered(expected, got)


def test_closed_equals_filtered_full_enumeration():
    rng = np.random.default_rng(53)
    db = make_db(random_rows(rng, 60, 8))
    via_filter = filter_closed(mine_eclat(db, 2))
    assert dict(mine_closed(db, 2, workers=2)) == dict(via_filter)


def test_workers_clamp_to_one():
    # Non-positive counts degrade to one worker (the pool still runs)
    # instead of raising.
    db = make_db([(0, 1), (0, 1), (1,)])
    expected = mine_eclat(db, 1)
    assert_same_ordered(expected, mine_eclat(db, 1, workers=0))
    assert dict(mine_closed(db, 1, workers=-1)) == dict(mine_closed(db, 1))


def test_resolve_workers_defaults_to_cpu_count():
    assert _pool.resolve_workers(3) == 3
    assert _pool.resolve_workers(None) >= 1


def test_partition_roots_balances_and_clamps():
    supports = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)
    parts = ip.partition_roots(supports, 3)
    assert len(parts) == 3
    assert sorted(p for part in parts for p in part) == list(range(6))
    assert all(part == sorted(part) for part in parts)
    # Never more partitions than roots, never empty ones.
    parts = ip.partition_roots(supports[:2], 5)
    assert len(parts) == 2
    assert all(part for part in parts)


def test_segments_unlinked_on_success(assert_segments_unlinked):
    rng = np.random.default_rng(59)
    db = make_db(random_rows(rng, 40, 7))
    mine_eclat(db, 2, workers=2)
    assert_segments_unlinked()
