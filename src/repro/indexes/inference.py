"""Statistical inference for segregation indexes.

Segregation discovery ranks thousands of cube cells; small contexts can
show large index values by chance alone (finite-sample bias of ``D`` is
well known).  This module provides the two standard guards:

* :func:`bootstrap_ci` — percentile confidence interval by resampling
  individuals within units (multinomial per-unit resampling);
* :func:`randomization_test` — permutation test of the null "minority
  membership is independent of unit", also returning the expected index
  under the null (the *random segregation* baseline that systematic
  segregation must exceed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SegregationIndexError
from repro.indexes.base import IndexSpec, evaluate
from repro.indexes.counts import UnitCounts


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of a bootstrap run."""

    estimate: float
    low: float
    high: float
    std_error: float
    n_boot: int


@dataclass(frozen=True)
class RandomizationResult:
    """Outcome of a permutation (randomisation) test."""

    observed: float
    expected_under_null: float
    std_under_null: float
    p_value: float
    n_permutations: int

    @property
    def excess(self) -> float:
        """Systematic component: observed minus random-segregation baseline."""
        return self.observed - self.expected_under_null


def bootstrap_ci(
    index: IndexSpec,
    counts: UnitCounts,
    n_boot: int = 500,
    alpha: float = 0.05,
    seed: int | None = 0,
) -> BootstrapResult:
    """Percentile bootstrap confidence interval for ``index`` on ``counts``.

    Unit sizes are kept fixed; each unit's minority count is resampled
    from Binomial(t_i, p_i), the standard parametric bootstrap for
    segregation indexes.  The replicas are drawn from one seeded
    generator, replica after replica, and evaluated as one block.
    """
    if n_boot < 1:
        raise SegregationIndexError("n_boot must be >= 1")
    if not 0 < alpha < 1:
        raise SegregationIndexError("alpha must be in (0, 1)")
    rng = np.random.default_rng(seed)
    estimate = index.compute(counts)
    t = counts.t.astype(np.int64)
    p = counts.unit_proportions
    draws = rng.binomial(t, p, size=(n_boot, len(t)))
    replicas = evaluate([index], t, draws)[0]
    replicas = replicas[~np.isnan(replicas)]
    if len(replicas) == 0:
        return BootstrapResult(estimate, float("nan"), float("nan"),
                               float("nan"), n_boot)
    low, high = np.quantile(replicas, [alpha / 2, 1 - alpha / 2])
    return BootstrapResult(
        estimate, float(low), float(high), float(replicas.std(ddof=1))
        if len(replicas) > 1 else 0.0, n_boot
    )


def randomization_test(
    index: IndexSpec,
    counts: UnitCounts,
    n_permutations: int = 500,
    seed: int | None = 0,
) -> RandomizationResult:
    """Permutation test of no systematic segregation.

    Under the null, the ``M`` minority members are spread over units by a
    random draw without replacement (multivariate hypergeometric); the
    returned ``p_value`` is the fraction of null draws with an index at
    least as large as observed (with the +1 small-sample correction).
    The draws come in sequence from one seeded generator and are
    evaluated as one block.
    """
    if n_permutations < 1:
        raise SegregationIndexError("n_permutations must be >= 1")
    rng = np.random.default_rng(seed)
    observed = index.compute(counts)
    t = counts.t.astype(np.int64)
    total = int(counts.total)
    m_total = int(counts.minority_total)
    draws = np.array([
        _hypergeometric_split(t, total, m_total, rng)
        for _ in range(n_permutations)
    ])
    null_values = evaluate([index], t, draws)[0]
    valid = null_values[~np.isnan(null_values)]
    if len(valid) == 0 or np.isnan(observed):
        return RandomizationResult(observed, float("nan"), float("nan"),
                                   float("nan"), n_permutations)
    expected = float(valid.mean())
    std = float(valid.std(ddof=1)) if len(valid) > 1 else 0.0
    p = (1 + int((valid >= observed - 1e-12).sum())) / (len(valid) + 1)
    return RandomizationResult(observed, expected, std, float(p), n_permutations)


def _hypergeometric_split(
    t: np.ndarray, total: int, m_total: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw per-unit minority counts from a multivariate hypergeometric."""
    m = np.zeros(len(t), dtype=np.int64)
    remaining_pop = total
    remaining_min = m_total
    for i, size in enumerate(t):
        size = int(size)
        if remaining_pop <= 0 or remaining_min <= 0:
            break
        draw = rng.hypergeometric(remaining_min, remaining_pop - remaining_min,
                                  size) if size > 0 else 0
        m[i] = draw
        remaining_pop -= size
        remaining_min -= int(draw)
    return m
