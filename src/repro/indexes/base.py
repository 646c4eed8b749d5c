"""Index registry and the one evaluator.

The cube builder is "parametric to the indexes" (paper §2): it receives a
list of index names and fills one metric per cell and per index.  The
registry maps the canonical names — ``D``, ``G``, ``H``, ``Iso``,
``Int``, ``A`` — to their specs and documents their ranges.

A spec carries one implementation, a batched kernel
(:mod:`repro.indexes.vectorized`) mapping a prepared
:class:`~repro.indexes.vectorized.CountBlock` to one value per row.
:func:`evaluate` is the only way an index is evaluated: it prepares the
block once and runs every requested kernel over it.  The cube fill and
the closed-mode resolver call it through
:func:`repro.cube.builder.eval_context_block`, ``segregation_trend``'s
recompute path on one row, the inference helpers on a matrix of draws,
and :meth:`IndexSpec.compute` on one :class:`UnitCounts`.  A custom
index is registered with its own kernel and runs on the same path.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import SegregationIndexError
from repro.indexes import vectorized
from repro.indexes.counts import UnitCounts
from repro.indexes.vectorized import CountBlock


@dataclass(frozen=True)
class IndexSpec:
    """Metadata and kernel of one segregation index."""

    name: str
    long_name: str
    #: ``CountBlock -> (n_rows,)`` float64 values; degenerate rows are
    #: set to nan by :func:`evaluate`, whatever the kernel returns there.
    kernel: Callable[[CountBlock], np.ndarray]
    #: (low, high) theoretical bounds of the index value.
    bounds: tuple[float, float]
    #: True when 0 means "no segregation" and the maximum means complete
    #: segregation (false for exposure-type indexes like Interaction).
    higher_is_more_segregated: bool

    def compute(self, counts: UnitCounts) -> float:
        """Evaluate the index on per-unit counts: a one-row block."""
        return float(evaluate([self], counts.t, counts.m[None, :])[0, 0])


def evaluate(
    specs: Sequence[IndexSpec], t: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """Every spec's value on every row of ``m``, shape
    ``(len(specs), n_rows)``.

    ``t`` is the per-unit population shared by the rows of ``m``
    (``(n_rows, n_units)`` minority counts).  The block is prepared
    once (:meth:`CountBlock.of`) and each spec's kernel runs over it;
    degenerate rows come out as nan.  Rows are independent, so a row
    gets the same bits in any block.
    """
    block = CountBlock.of(t, m)
    values = np.empty((len(specs), len(block.m)))
    with np.errstate(invalid="ignore", divide="ignore"):
        for j, spec in enumerate(specs):
            values[j] = spec.kernel(block)
    values[:, block.degenerate] = np.nan
    return values


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
    """Resolve a list of index names, defaulting to all six SCube indexes.

    A name given twice (compared case-insensitively, as lookups are) is
    rejected: a cube holds one column per index.  So is a bare string,
    which would otherwise be read as a list of one-letter names.
    """
    if names is None:
        return list(DEFAULT_INDEXES)
    if isinstance(names, str):
        raise SegregationIndexError(
            f"index names must be a list of names, not the string {names!r}"
        )
    specs = [get_index(n) for n in names]
    if len({spec.name for spec in specs}) < len(specs):
        raise SegregationIndexError(f"an index is named twice in {names}")
    return specs


DISSIMILARITY = register(IndexSpec(
    "D", "Dissimilarity", vectorized.dissimilarity, (0.0, 1.0), True
))
GINI = register(IndexSpec("G", "Gini", vectorized.gini, (0.0, 1.0), True))
INFORMATION = register(IndexSpec(
    "H", "Information", vectorized.information, (0.0, 1.0), True
))
ISOLATION = register(IndexSpec(
    "Iso", "Isolation", vectorized.isolation, (0.0, 1.0), True
))
INTERACTION = register(IndexSpec(
    "Int", "Interaction", vectorized.interaction, (0.0, 1.0), False
))
ATKINSON = register(IndexSpec(
    "A", "Atkinson(0.5)", vectorized.atkinson, (0.0, 1.0), True
))

#: The six indexes SCube computes out of the box (paper §2).
DEFAULT_INDEXES: tuple[IndexSpec, ...] = (
    DISSIMILARITY,
    GINI,
    INFORMATION,
    ISOLATION,
    INTERACTION,
    ATKINSON,
)
