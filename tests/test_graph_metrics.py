"""Tests of clustering quality metrics (modularity vs networkx)."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.attributes import NodeAttributeTable
from repro.graph.components import Clustering, connected_components
from repro.graph.graph import Graph
from repro.graph.metrics import (
    attribute_homogeneity,
    conductance_all,
    mean_conductance,
    modularity,
    summarize,
)

from tests.oracles import graph_of
from tests.test_graph_clustering import to_networkx


def nx_modularity(graph: Graph, clustering: Clustering) -> float:
    communities = [
        set(clustering.members(c).tolist())
        for c in range(clustering.n_clusters)
        if len(clustering.members(c))
    ]
    return nx.algorithms.community.modularity(
        to_networkx(graph), communities, weight="weight"
    )


class TestModularity:
    def test_two_cliques_high_modularity(self):
        edges = [(2, 3, 1.0)]
        for block in (range(0, 3), range(3, 6)):
            nodes = list(block)
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    edges.append((u, v, 1.0))
        g = graph_of(6, edges)
        clustering = Clustering(np.array([0, 0, 0, 1, 1, 1]), 2, "manual")
        assert modularity(g, clustering) == pytest.approx(
            nx_modularity(g, clustering)
        )
        assert modularity(g, clustering) > 0.3

    def test_single_cluster_zero_or_negative(self):
        g = graph_of(4, [(0, 1, 1.0), (2, 3, 1.0)])
        clustering = Clustering(np.zeros(4, dtype=np.int64), 1, "all")
        assert modularity(g, clustering) == pytest.approx(0.0, abs=1e-12)

    def test_edgeless_graph(self):
        g = Graph(3)
        clustering = connected_components(g)
        assert modularity(g, clustering) == 0.0

    @given(
        st.integers(2, 15),
        st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14),
                           st.integers(1, 4)), min_size=1, max_size=40),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_on_random_graphs(self, n, raw_edges, k):
        edges: "dict[tuple[int, int], float]" = {}
        for u, v, w in raw_edges:
            u, v = u % n, v % n
            if u != v:
                edges.setdefault((min(u, v), max(u, v)), float(w))
        g = graph_of(n, [(u, v, w) for (u, v), w in edges.items()])
        if g.n_edges == 0:
            return
        rng = np.random.default_rng(0)
        labels = rng.integers(0, k, n)
        clustering = Clustering(labels.astype(np.int64), k, "random")
        assert modularity(g, clustering) == pytest.approx(
            nx_modularity(g, clustering), abs=1e-9
        )


class TestConductance:
    def test_isolated_cluster_zero(self):
        g = graph_of(4, [(0, 1, 1.0), (2, 3, 1.0)])
        clustering = connected_components(g)
        assert conductance_all(g, clustering)[0] == pytest.approx(0.0)

    def test_cut_cluster(self):
        g = graph_of(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        clustering = Clustering(np.array([0, 0, 1, 1]), 2, "manual")
        # cut = 1; vol(cluster0) = 1 + 2 = 3; total vol = 6 -> phi = 1/3
        assert conductance_all(g, clustering)[0] == pytest.approx(1 / 3)

    def test_empty_volume_is_nan(self):
        g = graph_of(3, [(0, 1, 1.0)])
        clustering = Clustering(np.array([0, 0, 1]), 2, "manual")
        assert math.isnan(conductance_all(g, clustering)[1])

    def test_mean_conductance_skips_nan(self):
        # Clusters {0,1} and {2,3} have conductance 0; the isolated node 4
        # has zero volume (nan) and must not poison the mean.
        g = graph_of(5, [(0, 1, 1.0), (2, 3, 1.0)])
        clustering = Clustering(np.array([0, 0, 1, 1, 2]), 3, "manual")
        assert mean_conductance(g, clustering) == pytest.approx(0.0)


class TestHomogeneity:
    def test_pure_clusters_zero_entropy(self):
        attrs = NodeAttributeTable.from_columns(
            4, {"color": ["r", "r", "b", "b"]}
        )
        clustering = Clustering(np.array([0, 0, 1, 1]), 2, "manual")
        assert attribute_homogeneity(attrs, clustering) == pytest.approx(0.0)

    def test_mixed_clusters_positive_entropy(self):
        attrs = NodeAttributeTable.from_columns(
            4, {"color": ["r", "b", "r", "b"]}
        )
        clustering = Clustering(np.array([0, 0, 1, 1]), 2, "manual")
        assert attribute_homogeneity(attrs, clustering) == pytest.approx(1.0)

    def test_no_attributes(self):
        attrs = NodeAttributeTable(4)
        clustering = Clustering(np.zeros(4, dtype=np.int64), 1, "m")
        assert attribute_homogeneity(attrs, clustering) == 0.0


class TestSummarize:
    def test_summary_fields(self):
        g = graph_of(4, [(0, 1, 1.0), (2, 3, 1.0)])
        clustering = connected_components(g)
        attrs = NodeAttributeTable.from_columns(
            4, {"color": ["r", "r", "b", "b"]}
        )
        summary = summarize(g, clustering, attrs)
        assert summary.n_clusters == 2
        assert summary.giant_size == 2
        assert summary.homogeneity == pytest.approx(0.0)
        assert summary.method == "connected-components"

    def test_summary_without_attributes(self):
        g = graph_of(2, [(0, 1, 1.0)])
        summary = summarize(g, connected_components(g))
        assert math.isnan(summary.homogeneity)
