"""Weight-threshold clustering of the giant component.

The second GraphClustering method of SCube (paper §3, "designed in
[the JIIS companion paper]"): real interlock graphs collapse into one
giant connected component, which would yield a single useless
organizational unit.  The method removes, *from the giant component
only*, edges whose weight (shared directors) falls below a threshold,
then re-extracts connected components — strong ties survive and split
the giant into meaningful business communities, while small components
are left untouched.

Both entry points run on the graph's edge arrays.  The sweep
(:func:`threshold_profile`) computes the base components and the
giant-internal edge mask **once**, then re-labels with a filtered edge
array per threshold — O(edges) array work per step instead of the
full graph rebuild + BFS per threshold.  Results are identical row for
row to that rebuild-and-BFS sweep, which ``tests/oracles.py`` keeps as
the parity reference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.components import (
    Clustering,
    connected_components,
    labels_from_edge_arrays,
)
from repro.graph.graph import Graph


def _giant_internal(graph: Graph) -> "tuple[np.ndarray, np.ndarray]":
    """Base component labels and the giant-internal edge mask."""
    base = connected_components(graph)
    in_giant = base.labels == base.giant()
    u, v, _ = graph.edge_arrays()
    return base.labels, in_giant[u] & in_giant[v]


def threshold_components(graph: Graph, min_weight: float) -> Clustering:
    """Split the giant component at ``min_weight``, keep the rest as-is.

    Steps (following the JIIS design):

    1. find connected components and the giant one;
    2. drop giant-component edges with weight < ``min_weight``;
    3. recompute components on the filtered edge array.

    With ``min_weight <= min edge weight`` this degenerates to plain
    connected components.
    """
    if min_weight < 0:
        raise GraphError("min_weight must be non-negative")
    _, giant_internal = _giant_internal(graph)
    u, v, w = graph.edge_arrays()
    keep = ~(giant_internal & (w < min_weight))
    labels, n_clusters = labels_from_edge_arrays(
        graph.n_nodes, u[keep], v[keep]
    )
    return Clustering(labels, n_clusters,
                      f"threshold-components(w>={min_weight:g})")


def threshold_profile(
    graph: Graph, thresholds: "list[float]"
) -> list[tuple[float, int, int]]:
    """Sweep thresholds; return ``(threshold, n_units, giant_size)`` rows.

    Used to pick the threshold: the paper's analysts look for the knee
    where the giant component dissolves into many mid-sized units.  The
    base components and the giant-internal mask are shared across the
    whole sweep; each threshold only re-masks the edge array and
    re-labels.
    """
    if not thresholds:
        return []
    for threshold in thresholds:
        if threshold < 0:
            raise GraphError("min_weight must be non-negative")
    _, giant_internal = _giant_internal(graph)
    u, v, w = graph.edge_arrays()
    rows = []
    for threshold in thresholds:
        keep = ~(giant_internal & (w < threshold))
        labels, n_clusters = labels_from_edge_arrays(
            graph.n_nodes, u[keep], v[keep]
        )
        sizes = np.bincount(labels, minlength=n_clusters)
        rows.append((float(threshold), n_clusters,
                     int(sizes.max()) if len(sizes) else 0))
    return rows
