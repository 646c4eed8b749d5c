"""Tests of the three GraphClustering methods (vs networkx oracles)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.attributes import NodeAttributeTable
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.graph.stoc import stoc_clustering
from repro.graph.threshold import threshold_components, threshold_profile

from tests.oracles import edge_weights, graph_of


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_nodes))
    g.add_weighted_edges_from(
        (u, v, w) for (u, v), w in edge_weights(graph).items()
    )
    return g


class TestConnectedComponents:
    def test_simple_two_components(self):
        g = graph_of(5, [(0, 1, 1), (1, 2, 1), (3, 4, 1)])
        clustering = connected_components(g)
        assert clustering.n_clusters == 2
        labels = clustering.labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_isolated_nodes_are_singletons(self):
        g = Graph(3)
        clustering = connected_components(g)
        assert clustering.n_clusters == 3

    def test_labels_deterministic_by_lowest_node(self):
        g = graph_of(4, [(2, 3, 1)])
        clustering = connected_components(g)
        assert clustering.labels.tolist() == [0, 1, 2, 2]

    def test_clustering_helpers(self):
        g = graph_of(5, [(0, 1, 1), (1, 2, 1), (3, 4, 1)])
        clustering = connected_components(g)
        assert clustering.sizes().tolist() == [3, 2]
        assert clustering.giant() == 0
        assert clustering.members(1).tolist() == [3, 4]
        assert clustering.node_unit()[4] == 1



@given(
    st.integers(1, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
)
@settings(max_examples=60, deadline=None)
def test_components_match_networkx(n, raw_edges):
    edges = {(min(u % n, v % n), max(u % n, v % n)) for u, v in raw_edges}
    g = graph_of(n, [(u, v, 1.0) for u, v in edges if u != v])
    ours = connected_components(g)
    expected = list(nx.connected_components(to_networkx(g)))
    assert ours.n_clusters == len(expected)
    # Same partition: every networkx component has a single label.
    for component in expected:
        labels = {int(ours.labels[u]) for u in component}
        assert len(labels) == 1


class TestThresholdComponents:
    def test_splits_giant_component_only(self):
        # Giant: 0-1-2-3 chained with weak links; separate pair 4-5 weak.
        g = graph_of(
            6,
            [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 5.0), (4, 5, 1.0)],
        )
        clustering = threshold_components(g, min_weight=2.0)
        labels = clustering.labels
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[1] != labels[2]
        # The small component's weak edge survives: not part of the giant.
        assert labels[4] == labels[5]

    def test_zero_threshold_equals_plain_components(self):
        g = graph_of(5, [(0, 1, 1.0), (2, 3, 1.0)])
        a = threshold_components(g, 0.0)
        b = connected_components(g)
        assert a.labels.tolist() == b.labels.tolist()

    def test_negative_threshold_rejected(self):
        with pytest.raises(GraphError):
            threshold_components(Graph(1), -1.0)

    def test_profile_monotone_units(self):
        rng = np.random.default_rng(3)
        edges = []
        for _ in range(60):
            u, v = rng.integers(0, 30, 2)
            if u != v:
                edges.append((int(u), int(v), float(rng.integers(1, 5))))
        g = graph_of(30, edges)
        rows = threshold_profile(g, [0.0, 2.0, 4.0, 10.0])
        units = [r[1] for r in rows]
        assert units == sorted(units)          # higher threshold, more units
        assert rows[0][1] == connected_components(g).n_clusters


class TestSToC:
    def _attributed_two_blobs(self):
        """Two cliques with distinct attributes, one weak bridge."""
        edges = [(4, 5, 1.0)]
        for block in (range(0, 5), range(5, 10)):
            nodes = list(block)
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    edges.append((u, v, 3.0))
        g = graph_of(10, edges)
        attrs = NodeAttributeTable.from_columns(
            10, {"sector": ["a"] * 5 + ["b"] * 5}
        )
        return g, attrs

    def test_separates_attribute_blocks(self):
        g, attrs = self._attributed_two_blobs()
        clustering = stoc_clustering(g, attrs, tau=0.4, seed=1)
        labels = clustering.labels
        assert len(set(labels[:5].tolist())) == 1
        assert len(set(labels[5:].tolist())) == 1
        assert labels[0] != labels[9]

    def test_tau_one_without_attributes_merges_components(self):
        g, _ = self._attributed_two_blobs()
        clustering = stoc_clustering(g, None, tau=1.0, seed=0)
        # Everything reachable within the horizon joins one ball.
        assert clustering.n_clusters <= 2

    def test_tau_zero_gives_singletons(self):
        g, attrs = self._attributed_two_blobs()
        clustering = stoc_clustering(g, attrs, tau=0.0, seed=0)
        assert clustering.n_clusters == g.n_nodes

    def test_every_node_labelled(self):
        g, attrs = self._attributed_two_blobs()
        clustering = stoc_clustering(g, attrs, tau=0.5, seed=2)
        assert (clustering.labels >= 0).all()

    def test_seed_reproducibility(self):
        g, attrs = self._attributed_two_blobs()
        a = stoc_clustering(g, attrs, tau=0.5, seed=5)
        b = stoc_clustering(g, attrs, tau=0.5, seed=5)
        assert a.labels.tolist() == b.labels.tolist()

    def test_parameter_validation(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            stoc_clustering(g, None, tau=1.5)
        with pytest.raises(GraphError):
            stoc_clustering(g, None, tau=-0.1)

    def test_attribute_size_mismatch(self):
        g = Graph(3)
        attrs = NodeAttributeTable.from_columns(2, {"a": ["x", "y"]})
        with pytest.raises(GraphError):
            stoc_clustering(g, attrs)
