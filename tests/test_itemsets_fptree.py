"""White-box tests of the FP-growth oracle's tree and its shortcuts."""

from __future__ import annotations

import pytest

from repro.itemsets.eclat import mine_eclat

from tests.oracles import FPTree, _build_tree, mine_fpgrowth
from tests.test_itemsets_miners import make_db


class TestFPTreeStructure:
    def test_shared_prefixes_compress(self):
        tree = FPTree()
        tree.insert([0, 1, 2], 1)
        tree.insert([0, 1, 3], 1)
        tree.insert([0, 1], 1)
        # Root has one child (0), which has one child (1) with count 3.
        assert len(tree.root.children) == 1
        node0 = tree.root.children[0]
        assert node0.count == 3
        node1 = node0.children[1]
        assert node1.count == 3
        assert set(node1.children) == {2, 3}

    def test_header_links_chain_same_item(self):
        tree = FPTree()
        tree.insert([0, 2], 1)
        tree.insert([1, 2], 1)
        chain = []
        node = tree.header[2]
        while node is not None:
            chain.append(node)
            node = node.next_link
        assert len(chain) == 2

    def test_counts_accumulate(self):
        tree = FPTree()
        tree.insert([5], 3)
        tree.insert([5], 2)
        assert tree.counts[5] == 5

    def test_single_path_detection(self):
        tree = FPTree()
        tree.insert([0, 1, 2], 2)
        tree.insert([0, 1], 1)
        path = tree.is_single_path()
        assert path == [(0, 3), (1, 3), (2, 2)]

    def test_branching_is_not_single_path(self):
        tree = FPTree()
        tree.insert([0, 1], 1)
        tree.insert([0, 2], 1)
        assert tree.is_single_path() is None

    def test_prefix_paths(self):
        tree = FPTree()
        tree.insert([0, 1, 2], 2)
        tree.insert([1, 2], 1)
        paths = tree.prefix_paths(2)
        assert sorted(paths) == [([0, 1], 2), ([1], 1)]


class TestBuildTree:
    def test_infrequent_items_dropped(self):
        transactions = [([0, 1], 1), ([0, 2], 1), ([0], 1)]
        tree, order = _build_tree(transactions, minsup=2)
        assert order == [0]
        assert 1 not in tree.counts

    def test_order_by_descending_frequency(self):
        transactions = [([0, 1], 1), ([1], 1), ([1, 2], 1), ([2], 1)]
        tree, order = _build_tree(transactions, minsup=1)
        assert order[0] == 1            # most frequent first


class TestSinglePathOptimisation:
    def test_deep_chain_database(self):
        """A database that is one long chain exercises the single-path
        subset enumeration (2^k - 1 itemsets)."""
        chain = tuple(range(8))
        db = make_db([chain, chain, chain])
        result = mine_fpgrowth(db, 2)
        assert len(result) == 2 ** 8 - 1
        assert all(v == 3 for v in result.values())
        assert result == mine_eclat(db, 2)

    def test_chain_with_decreasing_counts(self):
        rows = [tuple(range(k)) for k in range(1, 7) for _ in range(2)]
        db = make_db(rows)
        assert mine_fpgrowth(db, 2) == mine_eclat(db, 2)

    def test_max_len_inside_single_path(self):
        chain = tuple(range(6))
        db = make_db([chain, chain])
        result = mine_fpgrowth(db, 1, max_len=2)
        assert all(len(k) <= 2 for k in result)
        assert len(result) == 6 + 15
