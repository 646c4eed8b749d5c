"""Tests of the weighted undirected graph storage layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.graph import Graph

from tests.oracles import (
    edge_weights,
    graph_of,
    left_adjacency_sets,
    neighbour_lists,
    right_adjacency_sets,
)


class TestConstruction:
    def test_edge_is_symmetric(self):
        g = Graph.from_edge_arrays(3, [1], [0], [2.0])
        assert edge_weights(g) == {(0, 1): 2.0}
        indptr, indices, weights = g.csr()
        assert indices[indptr[0]:indptr[1]].tolist() == [1]
        assert indices[indptr[1]:indptr[2]].tolist() == [0]
        assert weights.tolist() == [2.0, 2.0]

    def test_parallel_edges_accumulate(self):
        g = Graph.from_edge_arrays(2, [0, 1], [1, 0], [1.0, 2.5])
        assert edge_weights(g) == {(0, 1): 3.5}
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            graph_of(2, [(1, 1, 1.0)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(GraphError):
            graph_of(2, [(0, 1, 0.0)])
        with pytest.raises(GraphError):
            graph_of(2, [(0, 1, -1.0)])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            graph_of(2, [(0, 2, 1.0)])
        with pytest.raises(GraphError, match="out of range"):
            graph_of(2, [(-1, 0, 1.0)])

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)


class TestQueries:
    @pytest.fixture()
    def graph(self):
        return graph_of(
            5, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (3, 4, 1.0)]
        )

    def test_degree_and_weighted_degree(self, graph):
        indptr = graph.csr()[0]
        assert (indptr[1:] - indptr[:-1]).tolist() == [2, 2, 2, 1, 1]
        assert graph.weighted_degrees().tolist() == [3.0, 4.0, 5.0, 1.0, 1.0]

    def test_neighbors(self, graph):
        indptr, indices, weights = graph.csr()
        assert indices[indptr[0]:indptr[1]].tolist() == [1, 2]
        row = slice(indptr[1], indptr[2])
        assert dict(zip(indices[row].tolist(), weights[row].tolist())) \
            == {0: 1.0, 2: 3.0}

    def test_edges_enumerated_once(self, graph):
        u, v, _ = graph.edge_arrays()
        assert len(u) == 4
        assert (u < v).all()

    def test_totals(self, graph):
        assert graph.total_weight() == 7.0
        assert graph.n_edges == 4

    def test_isolated_nodes(self):
        g = graph_of(4, [(0, 1, 1.0)])
        assert g.isolated_nodes() == [2, 3]

    def test_weight_histogram(self, graph):
        assert graph.weight_histogram() == {1.0: 2, 2.0: 1, 3.0: 1}


class TestCSR:
    def test_csr_shape_and_sorting(self):
        g = graph_of(3, [(0, 2, 1.0), (0, 1, 2.0)])
        indptr, indices, weights = g.csr()
        assert indptr.tolist() == [0, 2, 3, 4]
        assert indices[:2].tolist() == [1, 2]      # sorted neighbours
        assert weights[:2].tolist() == [2.0, 1.0]


def _csr_of_rows(rows):
    """``(indptr, indices)`` spelled out from ascending Python rows."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr.tolist(), [node for row in rows for node in row]


def _assert_graph_csr_matches_oracle(graph):
    indptr, indices, weights = graph.csr()
    rows = neighbour_lists(graph)
    weight_of = edge_weights(graph)
    assert (indptr.tolist(), indices.tolist()) == _csr_of_rows(rows)
    assert weights.tolist() == [
        weight_of[min(a, b), max(a, b)]
        for a, row in enumerate(rows) for b in row
    ]
    assert indptr.dtype == indices.dtype == np.int64
    assert weights.dtype == np.float64


def _triples(n_nodes):
    node = st.integers(0, n_nodes - 1)
    return st.lists(
        st.tuples(node, node, st.sampled_from([0.5, 1.0, 3.0])),
        max_size=60,
    ).map(lambda triples: (n_nodes, [t for t in triples if t[0] != t[1]]))


@given(st.sampled_from([2, 5, 30, 70_000]).flatmap(_triples))
@settings(max_examples=80, deadline=None)
def test_csr_matches_neighbour_lists(world):
    """Rows ascend and carry their edge's weight, on graphs with
    isolated nodes, parallel edges in both orientations and node ids
    past 16 bits."""
    _assert_graph_csr_matches_oracle(graph_of(*world))


def test_csr_on_70k_nodes():
    """30,000 random edges over 70,000 nodes: the sort key needs 17
    bits, so the stable sort is not a radix sort."""
    rng = np.random.default_rng(5)
    u = rng.integers(0, 70_000, 30_000)
    v = rng.integers(0, 70_000, 30_000)
    u, v = u[u != v], v[u != v]
    # every tenth edge again, reversed: parallel edges
    u, v = np.concatenate([u, v[::10]]), np.concatenate([v, u[::10]])
    graph = Graph.from_edge_arrays(70_000, u, v, rng.random(len(u)) + 0.5)
    assert graph.isolated_nodes()
    _assert_graph_csr_matches_oracle(graph)


def _memberships(n_right):
    return st.tuples(
        st.integers(1, 12),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, n_right - 1)),
                 max_size=60),
    ).map(lambda drawn: (drawn[0], n_right,
                         [(l % drawn[0], r) for l, r in drawn[1]]))


@given(st.sampled_from([1, 6, 70_000]).flatmap(_memberships))
@settings(max_examples=60, deadline=None)
def test_bipartite_csr_matches_adjacency_sets(world):
    """Both sides' rows equal the sorted adjacency sets, with group ids
    past 16 bits."""
    n_left, n_right, edges = world
    bipartite = BipartiteGraph.from_edges(n_left, n_right, edges)
    l_indptr, l_indices, r_indptr, r_indices = bipartite._ensure_csr()
    left = [sorted(row) for row in left_adjacency_sets(bipartite)]
    right = [sorted(row) for row in right_adjacency_sets(bipartite)]
    assert (l_indptr.tolist(), l_indices.tolist()) == _csr_of_rows(left)
    assert (r_indptr.tolist(), r_indices.tolist()) == _csr_of_rows(right)
