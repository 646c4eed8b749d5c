"""Tests of the bipartite graph and the GraphBuilder projections."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import random_bipartite_world
from repro.errors import GraphError
from repro.graph import bipartite as bipartite_module
from repro.graph.bipartite import (
    BipartiteGraph,
    project_onto_groups,
    project_onto_individuals,
)

from tests.oracles import edge_weights, projection_bruteforce


class TestBipartiteGraph:
    def test_edges_are_idempotent(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 1), (0, 1)])
        assert g.n_edges == 1

    def test_membership_queries(self):
        g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 0), (2, 1)])
        # The both-side CSR the projections read.
        l_indptr, l_indices, r_indptr, r_indices = g._ensure_csr()
        assert r_indices[r_indptr[0]:r_indptr[1]].tolist() == [0, 1]
        assert l_indices[l_indptr[2]:l_indptr[3]].tolist() == [1]
        assert np.diff(l_indptr).tolist() == [1, 1, 1]
        assert np.diff(r_indptr).tolist() == [2, 1]

    def test_membership_views_are_readonly(self):
        g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 0), (2, 1)])
        lefts, rights = g.membership_arrays()
        with pytest.raises(ValueError):
            lefts[0] = 5
        with pytest.raises(ValueError):
            rights[0] = 9

    def test_from_arrays_matches_from_edges(self):
        pairs = [(0, 0), (1, 0), (2, 1), (1, 0)]
        a = BipartiteGraph.from_edges(3, 2, pairs)
        b = BipartiteGraph.from_arrays(
            3, 2,
            np.array([p[0] for p in pairs]),
            np.array([p[1] for p in pairs]),
        )
        assert a.n_edges == b.n_edges == 3
        la, ra = a.membership_arrays()
        lb, rb = b.membership_arrays()
        assert la.tolist() == lb.tolist()
        assert ra.tolist() == rb.tolist()

    def test_from_arrays_range_checks(self):
        with pytest.raises(GraphError, match="left node 3"):
            BipartiteGraph.from_arrays(3, 2, np.array([3]), np.array([0]))
        with pytest.raises(GraphError, match="right node -1"):
            BipartiteGraph.from_arrays(3, 2, np.array([0]), np.array([-1]))

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            BipartiteGraph.from_edges(1, 1, [(1, 0)])
        with pytest.raises(GraphError):
            BipartiteGraph.from_edges(1, 1, [(0, 1)])

    def test_negative_sizes_rejected(self):
        with pytest.raises(GraphError):
            BipartiteGraph(-1, 3)


class TestGroupProjection:
    def test_paper_semantics_shared_directors_weight(self):
        """Two companies sharing two directors -> edge weight 2."""
        g = BipartiteGraph.from_edges(
            3, 2, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]
        )
        result = project_onto_groups(g)
        assert edge_weights(result.graph) == {(0, 1): 2.0}
        assert result.isolated == []

    def test_isolated_groups_reported(self):
        g = BipartiteGraph.from_edges(2, 3, [(0, 0), (0, 1)])
        result = project_onto_groups(g)
        assert result.isolated == [2]

    def test_hub_guard_skips_big_directors(self):
        # Director 0 sits everywhere; with the guard the projection is empty.
        g = BipartiteGraph.from_edges(1, 4, [(0, k) for k in range(4)])
        result = project_onto_groups(g, max_left_degree=3)
        assert result.graph.n_edges == 0
        assert result.skipped_hubs == [0]


class TestPairBudget:
    def test_power_law_world_raises_before_allocating(self):
        """Onto individuals, a 100k x 5k power-law world would enumerate
        735M pairs (its largest group has 30,434 members): the
        projection names them and raises at once."""
        world, _ = random_bipartite_world(100_000, 5_000, seed=1)
        start = time.perf_counter()
        with pytest.raises(GraphError, match=r"735,298,931 co-membership "
                                             r"pairs \(largest source "
                                             r"degree 30434\)"):
            project_onto_individuals(world)
        assert time.perf_counter() - start < 1.0

    def test_budget_counts_pairs_left_after_the_hub_skip(self, monkeypatch):
        # individual 0 sits on 4 boards (6 pairs), the hub on 10 (45)
        g = BipartiteGraph.from_edges(
            2, 10, [(0, k) for k in range(4)] + [(1, k) for k in range(10)]
        )
        monkeypatch.setattr(bipartite_module, "MAX_PAIRS", 6)
        assert project_onto_groups(g, max_left_degree=4).graph.n_edges == 6
        with pytest.raises(GraphError, match=r"51 co-membership pairs "
                                             r"\(largest source degree "
                                             r"10\)"):
            project_onto_groups(g)


class TestIndividualProjection:
    def test_directors_sharing_a_board_connected(self):
        g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 0), (2, 1)])
        result = project_onto_individuals(g)
        assert edge_weights(result.graph) == {(0, 1): 1.0}
        assert result.isolated == [2]

    def test_weight_counts_shared_boards(self):
        g = BipartiteGraph.from_edges(2, 3, [(0, 0), (1, 0), (0, 1), (1, 1),
                                             (0, 2)])
        result = project_onto_individuals(g)
        assert edge_weights(result.graph) == {(0, 1): 2.0}


@given(
    st.integers(1, 12),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 7)), max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_projection_matches_bruteforce(n_left, n_right, raw_edges):
    edges = [(l % n_left, r % n_right) for l, r in raw_edges]
    g = BipartiteGraph.from_edges(n_left, n_right, edges)
    result = project_onto_groups(g)
    expected = projection_bruteforce(n_left, n_right, edges)
    actual = {
        edge: int(w) for edge, w in edge_weights(result.graph).items()
    }
    assert actual == expected


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=50)
)
@settings(max_examples=40, deadline=None)
def test_projection_symmetry(raw_edges):
    """Projecting onto individuals of the transposed graph equals
    projecting onto groups of the original."""
    g = BipartiteGraph.from_edges(10, 10, raw_edges)
    transposed = BipartiteGraph.from_edges(
        10, 10, [(r, l) for l, r in raw_edges]
    )
    onto_groups = project_onto_groups(g)
    onto_left = project_onto_individuals(transposed)
    assert edge_weights(onto_groups.graph) == edge_weights(onto_left.graph)


@given(
    st.integers(1, 40),
    st.integers(1, 30),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 29)),
             max_size=120),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_from_arrays_dedupes_like_np_unique(n_left, n_right, raw_edges,
                                            copies, rng):
    """The memberships are the ``np.unique`` of the ``(left, right)``
    keys, whatever their order and however often each repeats."""
    edges = [(l % n_left, r % n_right) for l, r in raw_edges] * (copies + 1)
    rng.shuffle(edges)
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    g = BipartiteGraph.from_arrays(n_left, n_right, pairs[:, 0], pairs[:, 1])
    keys = np.unique(pairs[:, 0] * n_right + pairs[:, 1])
    lefts, rights = g.membership_arrays()
    assert lefts.dtype == rights.dtype == np.int64
    assert np.array_equal(lefts, keys // n_right)
    assert np.array_equal(rights, keys % n_right)
    assert not lefts.flags.writeable and not rights.flags.writeable
