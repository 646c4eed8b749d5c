"""Weighted undirected graphs on edge arrays + CSR.

The GraphBuilder and GraphClustering modules of SCube operate on the
unipartite projection of the individuals×groups bipartite graph: nodes
are groups (companies), edge weights count shared individuals
(directors).  A :class:`Graph` is an array type: its edges live in three
parallel NumPy arrays ``(u, v, w)`` with ``u < v``, deduplicated and
sorted by ``(u, v)``, built once — by :meth:`Graph.from_edge_arrays`,
or by ``Graph._from_sorted_edges`` for the projection, whose pair count
already yields them sorted and unique — from which a cached CSR view
``(indptr, indices, weights)`` is derived for traversal-heavy
algorithms.  Every pass (projection, components, SToC,
threshold sweeps, metrics) reads ``edge_arrays()`` / ``csr()`` wholesale.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.sorting import stable_order


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for int arrays via sort + adjacent-diff: the graph
    layer's one dedupe.

    Called without ``return_*``, ``np.unique`` answers from a hash
    table, which on a million membership keys costs ~50x a sort; on a
    BFS frontier of a few thousand keys its per-call overhead dominates.
    Output is sorted ascending, exactly like ``np.unique``.
    """
    if len(values) <= 1:
        return values
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _accumulate_edges(
    n_nodes: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Deduplicate ``u < v`` edge arrays, summing parallel-edge weights.

    Returns arrays sorted by ``(u, v)``; the key fits int64 for any node
    count a single machine can hold (n_nodes² < 2**63).
    """
    if u.size == 0:
        return (
            _readonly(np.empty(0, dtype=np.int64)),
            _readonly(np.empty(0, dtype=np.int64)),
            _readonly(np.empty(0, dtype=np.float64)),
        )
    key = u * np.int64(n_nodes) + v
    uniq, inverse = np.unique(key, return_inverse=True)
    acc = np.bincount(inverse, weights=w, minlength=len(uniq))
    return (
        _readonly(uniq // n_nodes),
        _readonly(uniq % n_nodes),
        _readonly(acc.astype(np.float64, copy=False)),
    )


class Graph:
    """A weighted undirected graph over nodes ``0 .. n_nodes-1``.

    Self-loops are rejected; parallel edges accumulate weight.
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 0:
            raise GraphError("n_nodes must be non-negative")
        self.n_nodes = int(n_nodes)
        self._eu = _readonly(np.empty(0, dtype=np.int64))
        self._ev = _readonly(np.empty(0, dtype=np.int64))
        self._ew = _readonly(np.empty(0, dtype=np.float64))
        self._csr: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None

    @classmethod
    def from_edge_arrays(
        cls,
        n_nodes: int,
        u: np.ndarray,
        v: np.ndarray,
        weights: np.ndarray,
    ) -> "Graph":
        """Build from parallel edge arrays.

        Endpoints may come in either order; duplicate edges accumulate
        weight.
        """
        graph = cls(n_nodes)
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        w = np.asarray(weights, dtype=np.float64).ravel()
        if not (u.shape == v.shape == w.shape):
            raise GraphError("edge arrays must have equal length")
        if u.size:
            low = min(int(u.min()), int(v.min()))
            high = max(int(u.max()), int(v.max()))
            if low < 0 or high >= n_nodes:
                bad = low if low < 0 else high
                raise GraphError(f"node {bad} out of range [0, {n_nodes})")
            loops = u == v
            if loops.any():
                node = int(u[np.argmax(loops)])
                raise GraphError(f"self-loop on node {node} not allowed")
            nonpos = w <= 0
            if nonpos.any():
                value = w[np.argmax(nonpos)]
                raise GraphError(f"edge weight must be positive, got {value}")
        graph._eu, graph._ev, graph._ew = _accumulate_edges(
            n_nodes, np.minimum(u, v), np.maximum(u, v), w
        )
        return graph

    @classmethod
    def _from_sorted_edges(
        cls, n_nodes: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> "Graph":
        """Adopt edge arrays that already hold the invariants.

        The caller guarantees int64 ``u < v`` in ``[0, n_nodes)``,
        strictly ascending by ``(u, v)``, and positive float64 weights;
        nothing is checked or copied.
        """
        graph = cls(n_nodes)
        graph._eu, graph._ev, graph._ew = (
            _readonly(u), _readonly(v), _readonly(w)
        )
        return graph

    def edge_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Read-only ``(u, v, w)`` arrays, ``u < v``, sorted by ``(u, v)``."""
        return self._eu, self._ev, self._ew

    def csr(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Frozen CSR view ``(indptr, indices, weights)`` (cached).

        Neighbour lists are sorted by node id, both edge directions
        present.  One stable sort on the source alone sorts every row:
        the entries are laid out as the lower-neighbour half (source
        ``v``, neighbour ``u``) then the upper half (source ``u``,
        neighbour ``v``).  The edges are sorted by ``(u, v)``, so within
        each half one source's neighbours already ascend, and each of
        its lower neighbours is below it and each upper one above.
        """
        if self._csr is None:
            src = np.concatenate([self._ev, self._eu])
            dst = np.concatenate([self._eu, self._ev])
            wt = np.concatenate([self._ew, self._ew])
            order = stable_order(src, self.n_nodes)
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            counts = np.bincount(src, minlength=self.n_nodes)
            np.cumsum(counts, out=indptr[1:])
            self._csr = (
                _readonly(indptr),
                _readonly(dst[order]),
                _readonly(wt[order]),
            )
        return self._csr

    def weighted_degrees(self) -> np.ndarray:
        """Weighted degree of every node (one vectorized pass)."""
        u, v, w = self.edge_arrays()
        out = np.bincount(u, weights=w, minlength=self.n_nodes)
        out += np.bincount(v, weights=w, minlength=self.n_nodes)
        return _readonly(out)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._eu.size)

    def total_weight(self) -> float:
        """Sum of edge weights (each undirected edge counted once)."""
        return float(self._ew.sum())

    def isolated_nodes(self) -> list[int]:
        """Nodes with no incident edge."""
        u, v, _ = self.edge_arrays()
        touched = np.bincount(
            np.concatenate([u, v]), minlength=self.n_nodes
        )
        return [int(x) for x in np.flatnonzero(touched == 0)]

    def weight_histogram(self) -> dict[float, int]:
        """Edge count per distinct weight (for projection diagnostics)."""
        values, counts = np.unique(self._ew, return_counts=True)
        return {float(w): int(c) for w, c in zip(values, counts)}

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"
