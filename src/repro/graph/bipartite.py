"""Bipartite graphs and their unipartite projections (GraphBuilder).

SCube's *GraphBuilder* module (paper §3) "projects the bipartite graph of
individuals and groups into an unipartite attributed graph, where nodes
are groups and an edge connects two groups if they are related by at
least one shared individual.  Edges are weighted by the number of shared
individuals."  Isolated groups (zero projected degree) are reported
separately, matching the module's ``isolated`` output.

The graph is an array type, built once from membership arrays and
CSR-backed on both sides (memberships stored as deduplicated ``(left,
right)`` arrays, grouped vectorially); it has no per-edge insert or
per-node read.  The projection runs on arrays: co-membership pairs are
enumerated with a degree-bucketed gather over the CSR rows, then their
multiplicities are counted with one ``np.unique`` — the weight of
``{g1, g2}`` is exactly the number of individuals contributing the
pair.  The group projection's hub guard (``max_left_degree``) skips a
hub's pairs entirely, so a skipped hub contributes to *no* pair weight.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph, _readonly, _sorted_unique

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class BipartiteGraph:
    """A bipartite graph between ``n_left`` individuals and ``n_right`` groups.

    An array type: memberships are stored as deduplicated ``(left,
    right)`` int64 arrays, built once by :meth:`from_arrays`, with CSR
    views for both sides derived by vectorized grouping.
    """

    def __init__(self, n_left: int, n_right: int):
        if n_left < 0 or n_right < 0:
            raise GraphError("side sizes must be non-negative")
        self.n_left = int(n_left)
        self.n_right = int(n_right)
        self._el = _readonly(_EMPTY_I64.copy())
        self._er = _readonly(_EMPTY_I64.copy())
        self._csr: "tuple[np.ndarray, ...] | None" = None

    @classmethod
    def from_edges(
        cls, n_left: int, n_right: int, edges: Iterable[tuple[int, int]]
    ) -> "BipartiteGraph":
        """Build from ``(left, right)`` membership pairs (duplicates merged).

        Collects the pairs into arrays for :meth:`from_arrays`.
        """
        pairs = np.asarray(list(edges), dtype=np.int64)
        if pairs.size == 0:
            return cls(n_left, n_right)
        return cls.from_arrays(n_left, n_right, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_arrays(
        cls, n_left: int, n_right: int,
        lefts: np.ndarray, rights: np.ndarray,
    ) -> "BipartiteGraph":
        """Build from parallel membership arrays (duplicates merged)."""
        graph = cls(n_left, n_right)
        lefts = np.asarray(lefts, dtype=np.int64).ravel()
        rights = np.asarray(rights, dtype=np.int64).ravel()
        if lefts.shape != rights.shape:
            raise GraphError("membership arrays must have equal length")
        if lefts.size:
            if int(lefts.min()) < 0 or int(lefts.max()) >= n_left:
                bad = int(lefts.min()) if int(lefts.min()) < 0 \
                    else int(lefts.max())
                raise GraphError(
                    f"left node {bad} out of range [0, {n_left})"
                )
            if int(rights.min()) < 0 or int(rights.max()) >= n_right:
                bad = int(rights.min()) if int(rights.min()) < 0 \
                    else int(rights.max())
                raise GraphError(
                    f"right node {bad} out of range [0, {n_right})"
                )
            graph._el, graph._er = graph._dedupe(lefts, rights)
        return graph

    def _dedupe(
        self, lefts: np.ndarray, rights: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Sort by ``(left, right)`` and drop duplicate memberships."""
        key = lefts * np.int64(max(self.n_right, 1)) + rights
        uniq = _sorted_unique(key)
        return (
            _readonly(uniq // max(self.n_right, 1)),
            _readonly(uniq % max(self.n_right, 1)),
        )

    def _ensure_csr(self) -> "tuple[np.ndarray, ...]":
        """Both-side CSR: ``(l_indptr, l_indices, r_indptr, r_indices)``."""
        if self._csr is None:
            l_indptr = np.zeros(self.n_left + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self._el, minlength=self.n_left),
                out=l_indptr[1:],
            )
            # the membership arrays are sorted by (left, right) already
            l_indices = self._er
            order = np.lexsort((self._el, self._er))
            r_indptr = np.zeros(self.n_right + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self._er, minlength=self.n_right),
                out=r_indptr[1:],
            )
            r_indices = _readonly(self._el[order])
            self._csr = (l_indptr, l_indices, r_indptr, r_indices)
        return self._csr

    def membership_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """Read-only deduplicated ``(lefts, rights)`` arrays, sorted by
        ``(left, right)``."""
        return self._el, self._er

    @property
    def n_edges(self) -> int:
        """Number of distinct memberships."""
        return int(self._el.size)

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(n_left={self.n_left}, n_right={self.n_right}, "
            f"n_edges={self.n_edges})"
        )


@dataclass
class ProjectionResult:
    """Output of the GraphBuilder step."""

    graph: Graph
    #: Groups with no projected edge (paper output ``isolated``).
    isolated: list[int]
    #: Left nodes whose degree exceeded ``max_left_degree`` and were skipped.
    skipped_hubs: list[int]


def _enumerate_pairs(
    indptr: np.ndarray,
    indices: np.ndarray,
    max_degree: "int | None",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """All co-membership pairs ``(a, b)`` with ``a < b``, with multiplicity.

    Sources are bucketed by degree so each bucket becomes one dense
    ``(m, d)`` gather + ``triu_indices`` combination — no Python-level
    per-source loop.  Returns ``(a, b, skipped_sources)``.
    """
    degrees = np.diff(indptr)
    if max_degree is not None:
        skipped = np.flatnonzero(degrees > max_degree)
    else:
        skipped = _EMPTY_I64
    out_a: "list[np.ndarray]" = []
    out_b: "list[np.ndarray]" = []
    for d in np.unique(degrees):
        d = int(d)
        if d < 2 or (max_degree is not None and d > max_degree):
            continue
        sources = np.flatnonzero(degrees == d)
        gather = indptr[sources][:, None] + np.arange(d)[None, :]
        rows = indices[gather]  # (m, d); rows sorted (CSR invariant)
        iu, ju = np.triu_indices(d, k=1)
        out_a.append(rows[:, iu].ravel())
        out_b.append(rows[:, ju].ravel())
    if not out_a:
        return _EMPTY_I64, _EMPTY_I64, skipped
    return np.concatenate(out_a), np.concatenate(out_b), skipped


def _count_pairs_grouped(
    a: np.ndarray, b: np.ndarray, n_nodes: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Unique pairs + multiplicities via one sort: ``(u, v, counts)``."""
    key = a * np.int64(n_nodes) + b
    uniq, counts = np.unique(key, return_counts=True)
    return uniq // n_nodes, uniq % n_nodes, counts


def _project(
    bipartite: BipartiteGraph, side: str, max_degree: "int | None"
) -> ProjectionResult:
    """Shared projection core; ``side`` picks the node side kept."""
    l_indptr, l_indices, r_indptr, r_indices = bipartite._ensure_csr()
    if side == "groups":
        # sources = individuals; pairs live on the group side
        src_indptr, src_indices = l_indptr, l_indices
        n_nodes = bipartite.n_right
    else:
        src_indptr, src_indices = r_indptr, r_indices
        n_nodes = bipartite.n_left

    a, b, skipped = _enumerate_pairs(src_indptr, src_indices, max_degree)
    u, v, counts = _count_pairs_grouped(a, b, max(n_nodes, 1))
    graph = Graph.from_edge_arrays(
        n_nodes, u, v, counts.astype(np.float64)
    )
    isolated = graph.isolated_nodes()
    return ProjectionResult(graph, isolated, [int(s) for s in skipped])


def project_onto_groups(
    bipartite: BipartiteGraph, max_left_degree: "int | None" = None
) -> ProjectionResult:
    """Project onto the group side: edge weight = number of shared individuals.

    Parameters
    ----------
    max_left_degree:
        Individuals sitting in more than this many groups are skipped
        during pair generation (an individual of degree d contributes
        d*(d-1)/2 pairs; real board data has a handful of extreme
        multi-directors that would blow up the projection).  ``None``
        disables the guard.

    Complexity: sum over individuals of (degree choose 2) pair slots.
    """
    return _project(bipartite, "groups", max_left_degree)


def project_onto_individuals(bipartite: BipartiteGraph) -> ProjectionResult:
    """Project onto the individual side (paper §4, scenario 2).

    Nodes are individuals; an edge connects two directors who sit on at
    least one common board, weighted by the number of shared groups.
    """
    return _project(bipartite, "individuals", None)
