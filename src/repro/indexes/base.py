"""Index registry: names, metadata and the default SCube index set.

The cube builder is "parametric to the indexes" (paper §2): it receives a
list of index names and fills one metric per cell and per index.  The
registry maps the canonical names — ``D``, ``G``, ``H``, ``Iso``,
``Int``, ``A`` — to their implementations and documents their ranges.

Every spec carries two implementations: the scalar ``func`` evaluating
one :class:`~repro.indexes.counts.UnitCounts`, and an optional
``batch_func`` (:mod:`repro.indexes.vectorized`) evaluating a whole
``(n_cells, n_units)`` minority-count matrix against one shared
population vector in one vectorized pass.  The cube's one evaluation
path, :func:`repro.cube.builder.eval_context_block`, prepares each
context's block once (float64 cast, empty units dropped) and dispatches
every spec through :meth:`IndexSpec.compute_batch_prepared`; custom
indexes registered without a ``batch_func`` fall back there to a
row-by-row scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.errors import SegregationIndexError
from repro.indexes import binary, vectorized
from repro.indexes.counts import UnitCounts

IndexFunc = Callable[[UnitCounts], float]
#: Batched form: ``(t, m)`` with ``t`` of shape ``(n_units,)`` and ``m``
#: of shape ``(n_cells, n_units)`` -> values of shape ``(n_cells,)``.
BatchIndexFunc = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IndexSpec:
    """Metadata and implementation of one segregation index."""

    name: str
    long_name: str
    func: IndexFunc
    #: (low, high) theoretical bounds of the index value.
    bounds: tuple[float, float]
    #: True when 0 means "no segregation" and the maximum means complete
    #: segregation (false for exposure-type indexes like Interaction).
    higher_is_more_segregated: bool
    #: Optional batched kernel; None falls back to a scalar loop.
    batch_func: Optional[BatchIndexFunc] = None

    def compute(self, counts: UnitCounts) -> float:
        """Evaluate the index on per-unit counts."""
        return self.func(counts)

    def compute_batch_prepared(
        self,
        totals: np.ndarray,
        minority_matrix: np.ndarray,
    ) -> np.ndarray:
        """Evaluate the index on every row of a prepared minority-count
        matrix, bit-identically to :meth:`compute` row by row.

        Caller contract: both arrays are float64, empty units are
        already dropped, and ``minority_matrix`` rows are C-contiguous.
        :func:`repro.cube.builder.eval_context_block` prepares each
        context's block once and dispatches every spec here.
        """
        if self.batch_func is not None:
            return self.batch_func(totals, minority_matrix)
        return np.array(
            [
                self.func(UnitCounts(totals, row, drop_empty=False))
                for row in minority_matrix
            ],
            dtype=np.float64,
        )


_REGISTRY: dict[str, IndexSpec] = {}


def register(spec: IndexSpec) -> IndexSpec:
    """Add an index to the global registry (used for custom indexes too)."""
    key = spec.name.upper()
    if key in _REGISTRY:
        raise SegregationIndexError(f"index {spec.name!r} already registered")
    _REGISTRY[key] = spec
    return spec


def get_index(name: str) -> IndexSpec:
    """Look up an index by (case-insensitive) short name."""
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise SegregationIndexError(
            f"unknown index {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def resolve_indexes(names: "list[str] | None") -> list[IndexSpec]:
    """Resolve a list of index names, defaulting to all six SCube indexes."""
    if names is None:
        return list(DEFAULT_INDEXES)
    return [get_index(n) for n in names]


DISSIMILARITY = register(
    IndexSpec("D", "Dissimilarity", binary.dissimilarity, (0.0, 1.0), True,
              batch_func=vectorized.dissimilarity)
)
GINI = register(IndexSpec("G", "Gini", binary.gini, (0.0, 1.0), True,
                          batch_func=vectorized.gini))
INFORMATION = register(
    IndexSpec("H", "Information", binary.information, (0.0, 1.0), True,
              batch_func=vectorized.information)
)
ISOLATION = register(
    IndexSpec("Iso", "Isolation", binary.isolation, (0.0, 1.0), True,
              batch_func=vectorized.isolation)
)
INTERACTION = register(
    IndexSpec("Int", "Interaction", binary.interaction, (0.0, 1.0), False,
              batch_func=vectorized.interaction)
)
ATKINSON = register(
    IndexSpec(
        "A",
        "Atkinson(0.5)",
        partial(binary.atkinson, b=0.5),
        (0.0, 1.0),
        True,
        batch_func=partial(vectorized.atkinson, b=0.5),
    )
)

#: The six indexes SCube computes out of the box (paper §2).
DEFAULT_INDEXES: tuple[IndexSpec, ...] = (
    DISSIMILARITY,
    GINI,
    INFORMATION,
    ISOLATION,
    INTERACTION,
    ATKINSON,
)
