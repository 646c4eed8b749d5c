"""Tests of the weighted undirected graph storage layer."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph.graph import Graph

from tests.oracles import edge_weights, graph_of


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
