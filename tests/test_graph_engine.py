"""Array graph engine against the set/BFS references, exactly.

Every array hot path (projection, components, threshold sweep, SToC)
must reproduce the set/BFS reference implementations in
``tests/oracles.py`` *exactly* — same edges, same float weights, same
labels, same method strings.  Property tests drive randomly-shaped
bipartite worlds through both paths; every property also runs on the
Italian boards world with its hub guards as an explicit example.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import group_attribute_table
from repro.data.italy import ItalyConfig, generate_italy
from repro.data.synthetic import random_bipartite_world
from repro.graph.bipartite import (
    BipartiteGraph,
    project_onto_groups,
    project_onto_individuals,
)
from repro.graph.components import bfs_distances, connected_components
from repro.graph.graph import Graph
from repro.graph.stoc import stoc_clustering
from repro.graph.threshold import threshold_components, threshold_profile

from tests import oracles as legacy

#: The ``italy_small`` world, built at import: examples are fixed when
#: the tests are decorated, before any fixture exists.
_ITALY = generate_italy(ItalyConfig(n_companies=400, seed=13))
ITALY_BOARDS = _ITALY.bipartite(None)
ITALY_GRAPH = project_onto_groups(ITALY_BOARDS, max_left_degree=30).graph
ITALY_ATTRIBUTES = group_attribute_table(_ITALY)

edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 9)), max_size=80
)
worlds = edge_lists.map(lambda edges: BipartiteGraph.from_edges(15, 10, edges))
graphs = worlds.map(lambda world: project_onto_groups(world).graph)


def _attributed_graph(seed):
    bipartite, attributes = random_bipartite_world(300, 40, seed=seed)
    return project_onto_groups(bipartite, max_left_degree=20).graph, attributes


def _assert_same_projection(result, reference):
    u, v, w = result.graph.edge_arrays()
    ru, rv, rw = reference.graph.edge_arrays()
    assert np.array_equal(u, ru)
    assert np.array_equal(v, rv)
    assert np.array_equal(w, rw)
    assert list(result.isolated) == list(reference.isolated)
    assert list(result.skipped_hubs) == list(reference.skipped_hubs)


@given(worlds, st.integers(1, 3), st.sampled_from([None, 2, 4]))
@example(ITALY_BOARDS, 1, None)
@example(ITALY_BOARDS, 2, None)
@example(ITALY_BOARDS, 1, 20)
@settings(max_examples=80, deadline=None)
def test_group_projection_matches_legacy(g, min_shared, hub):
    result = project_onto_groups(
        g, min_shared=min_shared, max_left_degree=hub
    )
    reference = legacy.project_onto_groups_legacy(
        g, min_shared=min_shared, max_left_degree=hub
    )
    _assert_same_projection(result, reference)


@given(worlds, st.integers(1, 3), st.sampled_from([None, 2, 4]))
@example(ITALY_BOARDS, 1, None)
@example(ITALY_BOARDS, 2, None)
@example(ITALY_BOARDS, 1, 20)
@settings(max_examples=80, deadline=None)
def test_individual_projection_matches_legacy(g, min_shared, hub):
    result = project_onto_individuals(
        g, min_shared=min_shared, max_right_degree=hub
    )
    reference = legacy.project_onto_individuals_legacy(
        g, min_shared=min_shared, max_right_degree=hub
    )
    _assert_same_projection(result, reference)


@given(graphs)
@example(ITALY_GRAPH)
@settings(max_examples=60, deadline=None)
def test_components_match_legacy(graph):
    new = connected_components(graph)
    old = legacy.connected_components_legacy(graph)
    assert np.array_equal(new.labels, old.labels)
    assert new.n_clusters == old.n_clusters
    assert new.method == old.method


@given(graphs, st.floats(0.0, 6.0))
@example(ITALY_GRAPH, 2.0)
@example(ITALY_GRAPH, 3.0)
@example(ITALY_GRAPH, 5.0)
@settings(max_examples=60, deadline=None)
def test_threshold_matches_legacy(graph, min_weight):
    new = threshold_components(graph, min_weight)
    old = legacy.threshold_components_legacy(graph, min_weight)
    assert np.array_equal(new.labels, old.labels)
    assert new.n_clusters == old.n_clusters
    assert new.method == old.method


@given(graphs, st.just([1.0, 2.0, 3.0]))
@example(ITALY_GRAPH, [2.0, 3.0, 5.0])
@settings(max_examples=40, deadline=None)
def test_threshold_profile_matches_legacy(graph, thresholds):
    assert threshold_profile(graph, thresholds) \
        == legacy.threshold_profile_legacy(graph, thresholds)


@given(st.integers(0, 999).map(_attributed_graph),
       st.integers(0, 2**31 - 1), st.floats(0.1, 0.9),
       st.floats(0.1, 0.9), st.integers(1, 3))
@example((ITALY_GRAPH, ITALY_ATTRIBUTES), 7, 0.3, 0.5, 2)
@example((ITALY_GRAPH, ITALY_ATTRIBUTES), 7, 0.6, 0.5, 2)
@settings(max_examples=25, deadline=None)
def test_stoc_matches_legacy_on_attributed_world(world, rng_seed, tau,
                                                 alpha, horizon):
    graph, attributes = world
    new = stoc_clustering(graph, attributes, tau=tau, alpha=alpha,
                          horizon=horizon, seed=rng_seed)
    old = legacy.stoc_clustering_legacy(graph, attributes, tau=tau,
                                        alpha=alpha, horizon=horizon,
                                        seed=rng_seed)
    assert np.array_equal(new.labels, old.labels)
    assert new.n_clusters == old.n_clusters
    assert new.method == old.method


def test_stoc_degree_seeding_matches_legacy():
    bipartite, attributes = random_bipartite_world(400, 50, seed=5)
    graph = project_onto_groups(bipartite, max_left_degree=20).graph
    new = stoc_clustering(graph, attributes, seed_order="degree")
    old = legacy.stoc_clustering_legacy(graph, attributes,
                                        seed_order="degree")
    assert np.array_equal(new.labels, old.labels)


def test_stoc_without_attributes_matches_legacy():
    bipartite, _ = random_bipartite_world(400, 50, seed=6)
    graph = project_onto_groups(bipartite, max_left_degree=20).graph
    new = stoc_clustering(graph, None, tau=0.6, seed=3)
    old = legacy.stoc_clustering_legacy(graph, None, tau=0.6, seed=3)
    assert np.array_equal(new.labels, old.labels)


def test_bfs_distances_matches_dict_walk():
    bipartite, _ = random_bipartite_world(300, 40, seed=9)
    graph = project_onto_groups(bipartite, max_left_degree=20).graph
    for source in (0, 7, 23):
        full = bfs_distances(graph, source)
        bounded = bfs_distances(graph, source, max_hops=2)
        assert all(bounded[n] <= 2 for n in bounded)
        assert all(full[n] == bounded[n] for n in bounded)
        assert full[source] == 0


def test_graph_from_edge_arrays_accumulates_duplicates():
    u = np.array([0, 1, 0], dtype=np.int64)
    v = np.array([1, 0, 2], dtype=np.int64)
    w = np.array([1.0, 2.0, 1.0])
    g = Graph.from_edge_arrays(3, u, v, w)
    assert g.n_edges == 2
    assert g.weight(0, 1) == 3.0   # (0,1) and (1,0) merge
    assert g.weight(0, 2) == 1.0
