"""Clustering quality metrics.

Used by the benchmarks (E12) to compare the three GraphClustering
methods on equal footing: weighted modularity, per-cluster conductance
and attribute homogeneity (entropy within clusters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.attributes import NodeAttributeTable
from repro.graph.components import Clustering
from repro.graph.graph import Graph


def modularity(graph: Graph, clustering: Clustering) -> float:
    """Newman's weighted modularity of a node partition.

    Q = (1/2W) * sum_uv [A_uv - k_u k_v / 2W] * delta(c_u, c_v),
    with W the total edge weight and k the weighted degrees.
    Returns 0.0 for edgeless graphs.
    """
    total = graph.total_weight()
    if total == 0:
        return 0.0
    labels = clustering.labels
    u, v, w = graph.edge_arrays()
    intra = float(w[labels[u] == labels[v]].sum())
    degree_sums = np.bincount(
        labels, weights=graph.weighted_degrees(),
        minlength=clustering.n_clusters,
    )
    expected = float((degree_sums ** 2).sum()) / (4.0 * total * total)
    return intra / total - expected


def conductance_all(graph: Graph, clustering: Clustering) -> np.ndarray:
    """Conductance of every cluster, in one pass over the edges.

    Conductance = cut weight / min(volume, complement volume); 0 means
    perfectly separated, 1 means all incident weight crosses the
    boundary.  Clusters with zero volume get nan.
    """
    labels = clustering.labels
    k = clustering.n_clusters
    u, v, w = graph.edge_arrays()
    cu, cv = labels[u], labels[v]
    crossing = cu != cv
    cut = np.bincount(cu[crossing], weights=w[crossing], minlength=k)
    cut += np.bincount(cv[crossing], weights=w[crossing], minlength=k)
    # volume counts every edge endpoint: intra edges twice in their own
    # cluster, crossing edges once on each side
    volume = np.bincount(cu, weights=w, minlength=k).astype(np.float64)
    volume += np.bincount(cv, weights=w, minlength=k)
    total_volume = 2 * graph.total_weight()
    out = np.full(k, float("nan"))
    denom = np.minimum(volume, total_volume - volume)
    valid = denom > 0
    out[valid] = cut[valid] / denom[valid]
    return out


def mean_conductance(graph: Graph, clustering: Clustering) -> float:
    """Average conductance over clusters (nan clusters skipped)."""
    values = conductance_all(graph, clustering)
    valid = values[~np.isnan(values)]
    return float(valid.mean()) if len(valid) else float("nan")


def attribute_homogeneity(
    attributes: NodeAttributeTable, clustering: Clustering
) -> float:
    """Mean within-cluster attribute entropy, size-weighted (lower = purer)."""
    if attributes.n_attributes == 0:
        return 0.0
    total = 0.0
    weight = 0
    for cluster in range(clustering.n_clusters):
        members = clustering.members(cluster)
        if len(members) == 0:
            continue
        entropy = np.mean(
            [attributes.cluster_entropy(name, members)
             for name in attributes.names]
        )
        total += float(entropy) * len(members)
        weight += len(members)
    return total / weight if weight else 0.0


@dataclass(frozen=True)
class ClusteringSummary:
    """One row of the clustering comparison benchmark (E12)."""

    method: str
    n_clusters: int
    giant_size: int
    modularity: float
    mean_conductance: float
    homogeneity: float


def summarize(
    graph: Graph,
    clustering: Clustering,
    attributes: "NodeAttributeTable | None" = None,
) -> ClusteringSummary:
    """Compute the full quality summary for one clustering."""
    sizes = clustering.sizes()
    return ClusteringSummary(
        method=clustering.method,
        n_clusters=clustering.n_clusters,
        giant_size=int(sizes.max()) if len(sizes) else 0,
        modularity=modularity(graph, clustering),
        mean_conductance=mean_conductance(graph, clustering),
        homogeneity=(
            attribute_homogeneity(attributes, clustering)
            if attributes is not None
            else float("nan")
        ),
    )
