"""Seed-era set/BFS graph algorithms, kept as the parity baseline.

Before PR 8 the ``graph/`` subsystem ran on Python ``set`` adjacency and
per-node BFS loops.  The array engine that replaced it (see
``bipartite.py``, ``components.py``, ``stoc.py``, ``threshold.py``) is
required to be *result-identical*: same projected edge set and weights,
same component labels, same seeded SToC clusters.  This module preserves
the original algorithms — operating through the public scalar API of the
new structures — so that equivalence stays executable:

* property tests (``tests/test_graph_engine.py``) check new vs legacy on
  random worlds,
* ``python -m repro.graph.selfcheck`` checks it on realistic datasets in
  CI,
* the E22 benchmark (``benchmarks/bench_graph_engine.py``) uses these
  functions as the timed baseline.

Nothing outside tests/benchmarks should import this module.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import GraphError
from repro.graph.attributes import NodeAttributeTable
from repro.graph.bipartite import BipartiteGraph, ProjectionResult
from repro.graph.components import Clustering
from repro.graph.graph import Graph


def left_adjacency_sets(bipartite: BipartiteGraph) -> "list[set[int]]":
    """Seed-era representation: one Python set of groups per individual."""
    return [
        set(map(int, bipartite.groups_of(left)))
        for left in range(bipartite.n_left)
    ]


def right_adjacency_sets(bipartite: BipartiteGraph) -> "list[set[int]]":
    """Seed-era representation: one Python set of members per group."""
    return [
        set(map(int, bipartite.members_of(right)))
        for right in range(bipartite.n_right)
    ]


def _project_sets(
    adjacency: "list[set[int]]",
    n_nodes: int,
    min_shared: int,
    max_degree: "int | None",
) -> ProjectionResult:
    """The original pair-dict projection over a list of neighbour sets."""
    if min_shared < 1:
        raise GraphError("min_shared must be >= 1")
    weights: dict[tuple[int, int], int] = {}
    skipped: list[int] = []
    for source, neighbours in enumerate(adjacency):
        if max_degree is not None and len(neighbours) > max_degree:
            skipped.append(source)
            continue
        ordered = sorted(neighbours)
        for i, g1 in enumerate(ordered):
            for g2 in ordered[i + 1:]:
                key = (g1, g2)
                weights[key] = weights.get(key, 0) + 1
    graph = Graph(n_nodes)
    for (g1, g2), shared in weights.items():
        if shared >= min_shared:
            graph.add_edge(g1, g2, float(shared))
    isolated = graph.isolated_nodes()
    return ProjectionResult(graph, isolated, skipped)


def project_onto_groups_legacy(
    bipartite: BipartiteGraph,
    min_shared: int = 1,
    max_left_degree: "int | None" = None,
    adjacency: "list[set[int]] | None" = None,
) -> ProjectionResult:
    """Seed-era group projection (per-individual sorted pair loops).

    ``adjacency`` lets benchmarks pre-build the set representation so
    the timed region covers only the algorithm, not the format change.
    """
    if adjacency is None:
        adjacency = left_adjacency_sets(bipartite)
    return _project_sets(
        adjacency, bipartite.n_right, min_shared, max_left_degree
    )


def project_onto_individuals_legacy(
    bipartite: BipartiteGraph,
    min_shared: int = 1,
    max_right_degree: "int | None" = None,
    adjacency: "list[set[int]] | None" = None,
) -> ProjectionResult:
    """Seed-era individual projection (per-group sorted pair loops)."""
    if adjacency is None:
        adjacency = right_adjacency_sets(bipartite)
    return _project_sets(
        adjacency, bipartite.n_left, min_shared, max_right_degree
    )


def connected_components_legacy(graph: Graph) -> Clustering:
    """Seed-era BFS component labelling (deque + per-node loops)."""
    labels = np.full(graph.n_nodes, -1, dtype=np.int64)
    next_label = 0
    for start in range(graph.n_nodes):
        if labels[start] != -1:
            continue
        labels[start] = next_label
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if labels[v] == -1:
                    labels[v] = next_label
                    queue.append(v)
        next_label += 1
    return Clustering(labels, next_label, "connected-components")


def threshold_components_legacy(graph: Graph, min_weight: float) -> Clustering:
    """Seed-era giant-component thresholding (graph rebuild + BFS)."""
    if min_weight < 0:
        raise GraphError("min_weight must be non-negative")
    base = connected_components_legacy(graph)
    giant = base.giant()
    in_giant = base.labels == giant
    filtered = Graph(graph.n_nodes)
    for u, v, w in graph.edges():
        if in_giant[u] and in_giant[v] and w < min_weight:
            continue
        filtered.add_edge(u, v, w)
    result = connected_components_legacy(filtered)
    return Clustering(result.labels, result.n_clusters,
                      f"threshold-components(w>={min_weight:g})")


def threshold_profile_legacy(
    graph: Graph, thresholds: "list[float]"
) -> "list[tuple[float, int, int]]":
    """Seed-era sweep: one full threshold_components run per threshold."""
    rows = []
    for threshold in thresholds:
        clustering = threshold_components_legacy(graph, threshold)
        sizes = clustering.sizes()
        rows.append((float(threshold), clustering.n_clusters,
                     int(sizes.max()) if len(sizes) else 0))
    return rows


def stoc_clustering_legacy(
    graph: Graph,
    attributes: "NodeAttributeTable | None" = None,
    tau: float = 0.5,
    alpha: float = 0.5,
    horizon: int = 2,
    seed_order: str = "random",
    seed: "int | None" = 0,
) -> Clustering:
    """Seed-era SToC: per-ball deque BFS with Python set bookkeeping."""
    if not 0 <= tau <= 1:
        raise GraphError(f"tau must be in [0, 1], got {tau}")
    if not 0 <= alpha <= 1:
        raise GraphError(f"alpha must be in [0, 1], got {alpha}")
    if horizon < 1:
        raise GraphError(f"horizon must be >= 1, got {horizon}")
    if attributes is not None and attributes.n_nodes != graph.n_nodes:
        raise GraphError("attribute table size does not match graph")

    n = graph.n_nodes
    if seed_order == "random":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
    elif seed_order == "degree":
        degrees = np.fromiter((graph.degree(u) for u in range(n)),
                              dtype=np.int64, count=n)
        order = np.argsort(-degrees, kind="stable")
    else:
        raise GraphError(f"unknown seed_order {seed_order!r}")

    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for seed_node in order:
        seed_node = int(seed_node)
        if labels[seed_node] != -1:
            continue
        ball = _tau_ball_legacy(graph, attributes, seed_node, labels, tau,
                                alpha, horizon)
        for node in ball:
            labels[node] = next_label
        next_label += 1
    return Clustering(
        labels, next_label,
        f"stoc(tau={tau:g},alpha={alpha:g},h={horizon})"
    )


def _tau_ball_legacy(
    graph: Graph,
    attributes: "NodeAttributeTable | None",
    seed_node: int,
    labels: np.ndarray,
    tau: float,
    alpha: float,
    horizon: int,
) -> "list[int]":
    ball = [seed_node]
    visited = {seed_node}
    queue: "deque[tuple[int, int]]" = deque([(seed_node, 0)])
    while queue:
        u, depth = queue.popleft()
        if depth >= horizon:
            continue
        for v in graph.neighbors(u):
            if v in visited or labels[v] != -1:
                continue
            visited.add(v)
            d_topo = (depth + 1) / horizon
            if attributes is not None:
                d_attr = attributes.hamming_distance(seed_node, v)
            else:
                d_attr = 0.0
            distance = alpha * d_topo + (1 - alpha) * d_attr
            if distance <= tau:
                ball.append(v)
                queue.append((v, depth + 1))
    return ball
