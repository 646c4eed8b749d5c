"""Node attribute tables for attributed graphs.

Attributed-graph clustering (paper §2, citing Bothorel et al.) partitions
nodes that are both well connected *and* similar on their attributes.
This module stores per-node categorical attributes column-wise as
integer codes; SToC reads them as one code matrix
(:meth:`NodeAttributeTable.codes_matrix`) for its Hamming distances.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import GraphError


class NodeAttributeTable:
    """Categorical attributes for ``n_nodes`` graph nodes.

    Attributes are stored as integer code arrays; distances operate on
    codes, so the table is cheap to query inside clustering loops.
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 0:
            raise GraphError("n_nodes must be non-negative")
        self.n_nodes = n_nodes
        self._columns: dict[str, np.ndarray] = {}
        self._categories: dict[str, list] = {}
        self._matrix: "np.ndarray | None" = None

    @classmethod
    def from_columns(
        cls, n_nodes: int, columns: Mapping[str, Sequence[object]]
    ) -> "NodeAttributeTable":
        """Build from raw ``{name: values}`` columns."""
        table = cls(n_nodes)
        for name, values in columns.items():
            table.add(name, values)
        return table

    def add(self, name: str, values: Sequence[object]) -> None:
        """Add one categorical attribute column."""
        if len(values) != self.n_nodes:
            raise GraphError(
                f"attribute {name!r} has {len(values)} values for "
                f"{self.n_nodes} nodes"
            )
        categories: list = []
        index: dict[object, int] = {}
        codes = np.empty(self.n_nodes, dtype=np.int32)
        for k, value in enumerate(values):
            code = index.get(value)
            if code is None:
                code = len(categories)
                index[value] = code
                categories.append(value)
            codes[k] = code
        self._columns[name] = codes
        self._categories[name] = categories
        self._matrix = None

    @property
    def names(self) -> list[str]:
        return list(self._columns)

    @property
    def n_attributes(self) -> int:
        return len(self._columns)

    def codes(self, name: str) -> np.ndarray:
        """Code array of attribute ``name``."""
        try:
            return self._columns[name]
        except KeyError:
            raise GraphError(f"unknown attribute {name!r}") from None

    def codes_matrix(self) -> np.ndarray:
        """All code columns stacked as one ``(n_attributes, n_nodes)`` matrix.

        Cached (invalidated by :meth:`add`); the batched access path the
        vectorized SToC frontier uses for whole-level Hamming distances.
        """
        if self._matrix is None:
            if self._columns:
                matrix = np.vstack(list(self._columns.values()))
            else:
                matrix = np.empty((0, self.n_nodes), dtype=np.int32)
            matrix.setflags(write=False)
            self._matrix = matrix
        return self._matrix

    def value(self, name: str, node: int) -> object:
        """Decoded value of ``name`` at ``node``."""
        return self._categories[name][int(self.codes(name)[node])]

    def cluster_entropy(self, name: str, members: np.ndarray) -> float:
        """Shannon entropy (bits) of attribute ``name`` within a cluster."""
        codes = self.codes(name)[members]
        if len(codes) == 0:
            return 0.0
        counts = np.bincount(codes)
        probs = counts[counts > 0] / len(codes)
        return float(-(probs * np.log2(probs)).sum())
