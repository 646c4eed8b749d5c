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
enumerated with a degree-bucketed gather over the CSR rows as one key
array, whose one in-place sort and adjacent diff give the distinct pairs
and their multiplicities — the weight of ``{g1, g2}`` is exactly the
number of individuals contributing the pair.  The group projection's hub
guard (``max_left_degree``) skips a hub's pairs entirely, so a skipped
hub contributes to *no* pair weight.  The pair count is known from the
CSR degrees before any pair exists, and a projection above
:data:`MAX_PAIRS` raises instead of allocating.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph, _readonly, _sorted_unique
from repro.sorting import stable_order

_EMPTY_I64 = np.empty(0, dtype=np.int64)
#: Most co-membership pairs one projection may enumerate; a projection
#: over it raises before any pair array exists.  The key sort holds one
#: int64 key per pair, 256 MiB at the budget.  The whole projection
#: peaks higher when nearly every pair is its own edge: 1.84 GB traced
#: for 29.4M pairs (28.6M edges), ~66 bytes a pair, so ~2.2 GB at the
#: budget.  The group projection of the 500k x 20k benchmark world
#: enumerates 889,758 pairs.
MAX_PAIRS = 2**25


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
            # the membership arrays are sorted by (left, right) already,
            # so a stable sort on the right alone keeps each group's
            # members ascending
            l_indices = self._er
            order = stable_order(self._er, self.n_right)
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


def _project(
    bipartite: BipartiteGraph, side: str, max_degree: "int | None"
) -> ProjectionResult:
    """Shared projection core; ``side`` picks the node side kept.

    Sources (the other side) are grouped by degree with one stable
    sort, so each degree bucket becomes one dense ``(m, d)`` gather of
    CSR rows, and its ``triu_indices`` combinations are written straight
    into one preallocated key array as ``a * n + b`` (``a < b``, rows
    being sorted).  One in-place sort and an adjacent diff give the
    unique pairs, already in ``(u, v)`` order, and their counts.
    """
    l_indptr, l_indices, r_indptr, r_indices = bipartite._ensure_csr()
    if side == "groups":
        # sources = individuals; pairs live on the group side
        src_indptr, src_indices = l_indptr, l_indices
        n_nodes = bipartite.n_right
    else:
        src_indptr, src_indices = r_indptr, r_indices
        n_nodes = bipartite.n_left

    degrees = np.diff(src_indptr)
    if max_degree is not None:
        hub = degrees > max_degree
        skipped = np.flatnonzero(hub)
        degrees[hub] = 0
    else:
        skipped = _EMPTY_I64
    n_pairs = int((degrees * (degrees - 1) // 2).sum())
    if n_pairs > MAX_PAIRS:
        raise GraphError(
            f"projection onto {side} would enumerate {n_pairs:,} "
            f"co-membership pairs (largest source degree "
            f"{int(degrees.max())}), above the {MAX_PAIRS:,}-pair budget"
        )
    keys = np.empty(n_pairs, dtype=np.int64)
    sizes = np.bincount(degrees)
    by_degree = stable_order(degrees, len(sizes))
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    pos = 0
    for d in np.flatnonzero(sizes[2:]).tolist():
        d += 2
        sources = by_degree[bounds[d]:bounds[d + 1]]
        rows = src_indices[src_indptr[sources][:, None] + np.arange(d)]
        iu, ju = np.triu_indices(d, k=1)
        block = keys[pos:pos + len(sources) * len(iu)].reshape(
            len(sources), len(iu)
        )
        np.multiply(rows[:, iu], n_nodes, out=block)
        block += rows[:, ju]
        pos += block.size
    keys.sort()
    first = np.empty(n_pairs, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    u, v = np.divmod(keys[starts], n_nodes)
    counts = np.diff(starts, append=n_pairs).astype(np.float64)
    graph = Graph._from_sorted_edges(n_nodes, u, v, counts)
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
