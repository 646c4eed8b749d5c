"""The level-wise eclat kernel against the recursive DFS it replaced.

``tests.oracles`` keeps the DFS (``_dfs_typed``) and its two entry
points as the reference.  Every mine must return the reference's keys
in the reference's order (its preorder), with its supports and
bit-identical covers, and the kernel must AND exactly the frequent
sibling pairs the reference's lattice implies, counted from that
lattice by :func:`tests.oracles.sibling_join_count`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.builder import SegregationDataCubeBuilder
from repro.data.synthetic import random_final_table
from repro.errors import MiningError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.itemsets import eclat
from repro.itemsets.coverset import CoverSet
from repro.itemsets.eclat import mine_eclat, mine_eclat_typed
from repro.itemsets.transactions import encode_table

from tests.oracles import (
    mine_eclat_reference,
    mine_eclat_typed_reference,
    sibling_join_count,
)

SCHEMA = Schema.build(
    segregation=["g", "a"], context=["r", "mv"], unit="unitID",
    multi_valued=["mv"],
)

CAPS = st.sampled_from([None, 0, 1, 2])


@st.composite
def mining_cases(draw):
    """A cube table with a multi-valued CA, optionally restricted once
    or twice (down to no live row), and the arguments of one mine."""
    n = draw(st.integers(1, 120))
    rows = st.lists
    table = Table.from_dict({
        "g": draw(rows(st.sampled_from("FMX"), min_size=n, max_size=n)),
        "a": draw(rows(st.sampled_from("yo"), min_size=n, max_size=n)),
        "r": draw(rows(st.sampled_from("ab"), min_size=n, max_size=n)),
        "mv": [set(v) for v in draw(rows(
            st.lists(st.sampled_from("pqs"), max_size=3),
            min_size=n, max_size=n,
        ))],
        "unitID": draw(rows(st.integers(0, 3), min_size=n, max_size=n)),
    })
    db = encode_table(table, SCHEMA)
    for _ in range(draw(st.integers(0, 2))):
        db = db.restrict(np.array(
            draw(rows(st.booleans(), min_size=n, max_size=n)), dtype=bool
        ))
    # Up to one more than the live rows: a minsup above every support.
    minsup = draw(st.integers(1, db.n_active + 1))
    items = draw(st.none() | st.lists(
        st.integers(0, db.n_items - 1), unique=True,
    ))
    within = draw(st.sampled_from(["none", "empty", "item", "mask"]))
    if within == "empty":
        within = CoverSet.zeros(len(db))
    elif within == "item" and db.n_items:
        within = db.cover_of([draw(st.integers(0, db.n_items - 1))])
    elif within == "mask":
        within = CoverSet.from_bools(
            draw(rows(st.booleans(), min_size=n, max_size=n))
        )
    else:
        within = None
    return db, minsup, items, within, draw(CAPS), draw(CAPS)


def _same_covers(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.n_bits == b.n_bits
        assert np.array_equal(a.words, b.words)


@settings(max_examples=120, deadline=None)
@given(mining_cases())
def test_mines_match_the_reference_dfs(case):
    db, minsup, items, within, max_sa, max_ca = case
    sa_ids, ca_ids = db.dictionary.sa_ids, db.dictionary.ca_ids

    expected = mine_eclat_typed_reference(db, minsup, sa_ids, ca_ids,
                                          max_sa, max_ca)
    got = mine_eclat_typed(db, minsup, sa_ids, ca_ids, max_sa, max_ca)
    assert list(got) == list(expected)
    assert got.supports.tolist() == [c.support() for c in expected.values()]
    _same_covers(got.covers(), list(expected.values()))
    _same_covers([got[key] for key in expected], list(expected.values()))

    for with_covers in (False, True):
        expected = mine_eclat_reference(db, minsup, items, max_ca,
                                        with_covers, within)
        got = mine_eclat(db, minsup, items, max_ca, with_covers, within)
        assert list(got) == list(expected)
        if with_covers:
            _same_covers(list(got.values()), list(expected.values()))
        else:
            assert list(got.values()) == list(expected.values())


@pytest.mark.parametrize("chunk_words", [1, 5])
def test_chunking_is_invisible(monkeypatch, chunk_words):
    """A tiny word budget ANDs one or a few candidates per chunk."""
    table, schema = random_final_table(
        n_rows=400, n_units=6, sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 3}, multi_valued_ca={"mv": 3}, seed=3,
    )
    db = encode_table(table, schema)
    ids = (db, 4, db.dictionary.sa_ids, db.dictionary.ca_ids, 2, 2)
    whole = mine_eclat_typed(*ids)
    monkeypatch.setattr(eclat, "_JOIN_CHUNK_WORDS", chunk_words)
    chunked = mine_eclat_typed(*ids)
    assert list(chunked) == list(whole)
    assert np.array_equal(chunked.supports, whole.supports)
    _same_covers(chunked.covers(), whole.covers())


def test_rejects_minsup_below_one():
    table, schema = random_final_table(n_rows=20, n_units=2, seed=1)
    db = encode_table(table, schema)
    with pytest.raises(MiningError, match="minsup"):
        mine_eclat(db, 0)
    with pytest.raises(MiningError, match="minsup"):
        mine_eclat_typed(db, 0, db.dictionary.sa_ids, db.dictionary.ca_ids)


class TestWork:
    """Work counts, not timings: what one mine and one build AND."""

    @pytest.fixture(scope="class")
    def db(self):
        table, schema = random_final_table(
            n_rows=3000, n_units=12, sa_attributes={"g": 2, "a": 4, "b": 3},
            ca_attributes={"r": 5, "s": 4}, multi_valued_ca={"mv": 4},
            seed=1, skew=0.5,
        )
        return encode_table(table, schema)

    @pytest.mark.parametrize("caps", [(3, 3), (2, 1), (None, 2), (1, 0)])
    def test_ands_the_frequent_sibling_pairs(self, db, monkeypatch, caps):
        """The kernel ANDs each frequent-sibling pair within the caps
        once (the first level's covers are the items' own), fewer than
        the DFS, which ANDs every node with every later item."""
        sa_ids, ca_ids = db.dictionary.sa_ids, db.dictionary.ca_ids
        candidates = []
        join = eclat._join

        def counting(covers, left, item_covers, right, minsup):
            candidates.append(len(left))
            return join(covers, left, item_covers, right, minsup)

        monkeypatch.setattr(eclat, "_join", counting)
        lattice = mine_eclat_typed(db, 15, sa_ids, ca_ids, *caps)
        expected = mine_eclat_typed_reference(db, 15, sa_ids, ca_ids, *caps)
        assert list(lattice) == list(expected)
        roots, joins = sibling_join_count(list(expected), *caps)
        assert sum(candidates) == joins
        # Level 1 is the frequent items within the caps, as they are.
        assert roots == sum(len(sa) + len(ca) == 1 for sa, ca in lattice)

        dfs_ands = []
        monkeypatch.setattr(
            CoverSet, "__and__",
            lambda self, other: dfs_ands.append(1) or CoverSet(
                self.words & other.words, self.n_bits
            ),
        )
        mine_eclat_typed_reference(db, 15, sa_ids, ca_ids, *caps)
        assert roots + joins <= len(dfs_ands)

    @pytest.mark.parametrize("mode", ["all", "closed"])
    def test_a_build_mines_once(self, db, monkeypatch, mode):
        mines = []
        mine = eclat._mine
        monkeypatch.setattr(
            eclat, "_mine",
            lambda *args: mines.append(args[2]) or mine(*args),
        )
        builder = SegregationDataCubeBuilder(
            mode=mode, engine="incremental", min_population=40,
            min_minority=10, max_sa_items=2, max_ca_items=2,
        )
        cube = builder.build_from_transactions(db)
        assert mines == [frozenset(db.dictionary.sa_ids)]
        assert cube.metadata.extra["n_contexts"] > 1
