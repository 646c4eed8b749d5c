"""Connected components over edge arrays.

The simplest GraphClustering method SCube offers (paper §3): every
connected component of the projected graph becomes one organizational
unit.  Isolated nodes each form a singleton unit (they still host
population, so they must not be dropped from segregation analysis).

The labelling runs vectorially: min-label hooking + pointer doubling
over the whole edge array (a union-find where every union round is one
NumPy pass), instead of a per-node BFS.  At the fixed point every node's
root is the *lowest node id in its component*, so ranking the roots in
ascending order reproduces the BFS labelling exactly — label 0 is the
component of node 0, and so on.  The BFS lives on as the reference in
``tests/oracles.py``, and parity is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph


@dataclass
class Clustering:
    """A partition of graph nodes into organizational units.

    ``labels[u]`` is the unit id of node ``u``; unit ids are dense,
    ``0 .. n_clusters-1``.
    """

    labels: np.ndarray
    n_clusters: int
    method: str

    def members(self, cluster: int) -> np.ndarray:
        """Node ids belonging to ``cluster``."""
        return np.flatnonzero(self.labels == cluster)

    def sizes(self) -> np.ndarray:
        """Cluster sizes, indexed by cluster id."""
        return np.bincount(self.labels, minlength=self.n_clusters)

    def giant(self) -> int:
        """Id of the largest cluster."""
        return int(np.argmax(self.sizes()))

    def node_unit(self) -> dict[int, int]:
        """``{node: unit}`` mapping (the paper's ``nodeUnit`` output)."""
        return {int(u): int(c) for u, c in enumerate(self.labels)}

    def relabel_by_size(self) -> "Clustering":
        """Renumber clusters so id 0 is the largest (stable, deterministic)."""
        sizes = self.sizes()
        order = np.argsort(-sizes, kind="stable")
        remap = np.empty_like(order)
        remap[order] = np.arange(len(order))
        return Clustering(remap[self.labels], self.n_clusters, self.method)


def labels_from_edge_arrays(
    n_nodes: int, u: np.ndarray, v: np.ndarray
) -> "tuple[np.ndarray, int]":
    """Component labels for nodes ``0..n_nodes-1`` under edges ``(u, v)``.

    Min-label hooking + pointer doubling: every round hooks the larger
    of each edge's two roots onto the smaller one, then compresses all
    parent chains by repeated squaring.  Converges in O(log n) rounds of
    O(edges) work.  Labels are dense and ordered by each component's
    lowest node id — identical to BFS-in-node-order labelling.
    """
    parent = np.arange(n_nodes, dtype=np.int64)
    if len(u):
        while True:
            pu = parent[u]
            pv = parent[v]
            lo = np.minimum(pu, pv)
            hi = np.maximum(pu, pv)
            np.minimum.at(parent, hi, lo)
            while True:
                squashed = parent[parent]
                if np.array_equal(squashed, parent):
                    break
                parent = squashed
            if np.array_equal(parent[u], parent[v]):
                break
    roots, labels = np.unique(parent, return_inverse=True)
    return labels.astype(np.int64, copy=False), int(len(roots))


def connected_components(graph: Graph) -> Clustering:
    """Label connected components, in order of each component's lowest node.

    Runs in O((nodes + edges) log nodes) vectorized passes; labels are
    assigned in order of the lowest node id in each component, making
    results deterministic (and equal to the seed BFS labelling).
    """
    u, v, _ = graph.edge_arrays()
    labels, n_clusters = labels_from_edge_arrays(graph.n_nodes, u, v)
    return Clustering(labels, n_clusters, "connected-components")


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenated neighbour lists of every frontier node (one gather).

    The standard multi-range trick: repeat each row start, add a ramp
    that resets at each row boundary.
    """
    if len(frontier) == 1:
        node = int(frontier[0])
        return indices[int(indptr[node]):int(indptr[node + 1])]
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.zeros(len(frontier), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    ramp = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return indices[np.repeat(starts, counts) + ramp]


def bfs_distances(graph: Graph, source: int, max_hops: "int | None" = None
                  ) -> dict[int, int]:
    """Hop distances from ``source`` (bounded by ``max_hops`` if given).

    Level-synchronous array frontier over the CSR view; returns the same
    ``{node: hops}`` mapping as the seed deque BFS.
    """
    indptr, indices, _ = graph.csr()
    seen = np.zeros(graph.n_nodes, dtype=bool)
    seen[source] = True
    distances = {int(source): 0}
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while len(frontier):
        if max_hops is not None and depth >= max_hops:
            break
        neighbors = gather_neighbors(indptr, indices, frontier)
        fresh = np.unique(neighbors[~seen[neighbors]])
        if not len(fresh):
            break
        seen[fresh] = True
        depth += 1
        for node in fresh:
            distances[int(node)] = depth
        frontier = fresh
    return distances
