"""Per-unit population counts — the common input of all segregation indexes.

Following the paper's notation (§2): a population of size ``T`` with a
minority group of size ``M`` is spread over ``n`` organizational units;
``t_i`` is the unit-``i`` population and ``m_i`` its minority count.
:class:`UnitCounts` validates and carries the two vectors ``t`` and ``m``
of one population, with its totals and proportions: the input of
:meth:`~repro.indexes.base.IndexSpec.compute`, of the trend recompute
path and of the inference helpers.  The kernels themselves read a
prepared :class:`~repro.indexes.vectorized.CountBlock`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import SegregationIndexError


class UnitCounts:
    """Validated per-unit counts ``(t_i, m_i)`` for binary-group analysis.

    Parameters
    ----------
    totals:
        Population size of each unit (``t_i``); non-negative integers.
    minority:
        Minority count of each unit (``m_i``); must satisfy
        ``0 <= m_i <= t_i``.

    Units with ``t_i == 0`` are removed: empty units carry no population
    and, by definition of every index, do not affect the result.
    """

    def __init__(
        self,
        totals: Sequence[int] | np.ndarray,
        minority: Sequence[int] | np.ndarray,
    ):
        t = np.asarray(totals, dtype=np.float64)
        m = np.asarray(minority, dtype=np.float64)
        if t.ndim != 1 or m.ndim != 1:
            raise SegregationIndexError("totals and minority must be 1-D")
        if len(t) != len(m):
            raise SegregationIndexError(
                f"totals has {len(t)} units, minority has {len(m)}"
            )
        if np.any(t < 0) or np.any(m < 0):
            raise SegregationIndexError("counts must be non-negative")
        if np.any(m > t):
            bad = int(np.argmax(m > t))
            raise SegregationIndexError(
                f"minority exceeds total in unit {bad}: {m[bad]} > {t[bad]}"
            )
        keep = t > 0
        self.t = t[keep]
        self.m = m[keep]

    @classmethod
    def from_assignments(
        cls,
        units: Iterable[int] | np.ndarray,
        is_minority: Iterable[bool] | np.ndarray,
    ) -> "UnitCounts":
        """Aggregate individual-level data.

        ``units[k]`` is the unit id of individual ``k`` and
        ``is_minority[k]`` tells whether she belongs to the minority;
        there is one unit per id up to the largest.
        ``is_minority`` may also be a mining cover
        (:class:`~repro.itemsets.coverset.CoverSet`): anything exposing
        ``to_bools()`` is materialised into flags first.
        """
        u = np.asarray(units, dtype=np.int64)
        if hasattr(is_minority, "to_bools"):
            flags = np.asarray(is_minority.to_bools(), dtype=bool)
        else:
            flags = np.asarray(is_minority, dtype=bool)
        if len(u) != len(flags):
            raise SegregationIndexError("units and is_minority differ in length")
        if len(u) and u.min() < 0:
            raise SegregationIndexError("unit ids must be non-negative")
        size = int(u.max()) + 1 if len(u) else 0
        t = np.bincount(u, minlength=size).astype(np.float64)
        m = np.bincount(u[flags], minlength=size).astype(np.float64)
        return cls(t, m)

    @property
    def n_units(self) -> int:
        """Number of (non-empty) units."""
        return len(self.t)

    @property
    def total(self) -> float:
        """Total population ``T``."""
        return float(self.t.sum())

    @property
    def minority_total(self) -> float:
        """Minority population ``M``."""
        return float(self.m.sum())

    @property
    def proportion(self) -> float:
        """Overall minority fraction ``P = M / T`` (nan when ``T == 0``)."""
        return self.minority_total / self.total if self.total > 0 else float("nan")

    @property
    def unit_proportions(self) -> np.ndarray:
        """Per-unit minority fractions ``p_i = m_i / t_i`` (every ``t_i``
        is positive: empty units are dropped)."""
        return self.m / self.t

    def __repr__(self) -> str:
        return (
            f"UnitCounts(n_units={self.n_units}, T={self.total:.0f}, "
            f"M={self.minority_total:.0f})"
        )

