"""The segregation-index kernels: every formula, once, over a prepared block.

An index is evaluated on a *block*: one per-unit population vector ``t``
of shape ``(n_units,)`` shared by every row, and a minority-count matrix
``m`` of shape ``(n_rows, n_units)``, one row per cell (or per bootstrap
replica, or per null draw), aligned on the same units.
:meth:`CountBlock.of` prepares a block once — float64 cast, empty units
dropped, C-contiguous rows — together with the per-row aggregates every
index reads; :func:`repro.indexes.base.evaluate` prepares it and runs
each spec's kernel over it.  A kernel maps a :class:`CountBlock` to a
float64 vector of shape ``(n_rows,)``; the evaluator sets degenerate
rows (empty population, empty minority or empty majority) to ``nan``
afterwards, and runs the kernels with division warnings silenced, so a
kernel does neither.  Definitions follow Massey & Denton, "The
dimensions of residential segregation" (Social Forces 67(2), 1988), the
reference the paper cites for its metrics.  With ``T`` the population,
``M`` the minority size, ``P = M/T``, and per-unit totals/minority
``t_i`` / ``m_i``, ``p_i = m_i/t_i``:

* Dissimilarity  ``D = 1/2 * sum_i | m_i/M - (t_i-m_i)/(T-M) |``
* Gini           ``G = sum_i sum_j t_i t_j |p_i - p_j| / (2 T^2 P (1-P))``
* Information    ``H = 1 - sum_i t_i E_i / (T E)`` with binary entropies
  ``E_i = e(p_i)``, ``E = e(P)``
* Isolation      ``xPx = sum_i (m_i/M)(m_i/t_i)``
* Interaction    ``xPy = sum_i (m_i/M)((t_i-m_i)/t_i)``
* Atkinson(1/2)  ``A = 1 - P/(1-P) * [sum_i sqrt((1-p_i) p_i) t_i / (P T)]^2``

``D``, ``G``, ``H`` and ``A`` lie in ``[0, 1]`` with higher = more
segregated; ``xPx + xPy = 1``; ``G >= D`` always.

Rows are independent: a row gets the same bits in any block, and the
same bits as the one-row scalar transcriptions of these formulas that
``tests/oracles.py`` keeps as the reference (compared at atol=0 in
``tests/test_indexes_vectorized.py`` and, through the per-cell cube
fill, in benchmark E17).  Every reduction runs along the rows of a
C-contiguous matrix, which is what keeps a row's sums in the order of a
one-dimensional sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CountBlock:
    """A prepared ``(t, m)`` block: what every kernel reads.

    ``t`` is float64 with every unit non-empty; ``m`` is float64 and
    C-contiguous.  ``total`` is ``T``; ``minority_total`` (``M``),
    ``proportion`` (``P``; nan when ``T == 0``) and ``degenerate`` have
    one entry per row; ``unit_proportions`` is ``p_i`` per row and unit.
    """

    t: np.ndarray
    m: np.ndarray
    total: float
    minority_total: np.ndarray
    proportion: np.ndarray
    unit_proportions: np.ndarray
    degenerate: np.ndarray

    @classmethod
    def of(cls, t: np.ndarray, m: np.ndarray) -> "CountBlock":
        """Prepare ``(t, m)``: cast, drop empty units, aggregate once."""
        t = np.asarray(t, dtype=np.float64)
        keep = t > 0
        if not keep.all():
            t, m = t[keep], np.asarray(m)[:, keep]
        m = np.ascontiguousarray(m, dtype=np.float64)
        total = float(t.sum())
        m_tot = m.sum(axis=1)
        if total > 0:
            p_overall = m_tot / total
            degenerate = (m_tot == 0) | ((total - m_tot) == 0)
        else:
            p_overall = np.full(len(m), np.nan)
            degenerate = np.ones(len(m), dtype=bool)
        return cls(t, m, total, m_tot, p_overall, m / t, degenerate)


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of a Bernoulli(p), in bits, with 0*log(0) = 0."""
    out = np.zeros_like(p)
    inner = (p > 0) & (p < 1)
    q = p[inner]
    out[inner] = -(q * np.log2(q) + (1 - q) * np.log2(1 - q))
    return out


def dissimilarity(block: CountBlock) -> np.ndarray:
    """Dissimilarity ``D``: share of the minority that would have to
    relocate to equalise its distribution across units."""
    t, m, m_tot = block.t, block.m, block.minority_total
    minority_share = m / m_tot[:, None]
    majority_share = (t - m) / (block.total - m_tot)[:, None]
    return 0.5 * np.abs(minority_share - majority_share).sum(axis=1)


def gini(block: CountBlock) -> np.ndarray:
    """Gini ``G``: mean absolute difference between unit minority
    proportions, weighted by unit sizes and normalised.

    Computed in ``O(n log n)`` per row by sorting the ``p_i``: for
    sorted ``p``, ``sum_{i<j} t_i t_j (p_j - p_i)`` equals
    ``sum_{i<j} (m_j t_i - m_i t_j)``, a prefix-sum product (the naive
    double sum is kept in the test-suite as an oracle).
    """
    t, m, total, p_overall = block.t, block.m, block.total, block.proportion
    order = np.argsort(block.unit_proportions, axis=1, kind="stable")
    t_sorted = np.take_along_axis(np.broadcast_to(t, m.shape), order, axis=1)
    m_sorted = np.take_along_axis(m, order, axis=1)
    cum_t = np.zeros_like(t_sorted)
    cum_m = np.zeros_like(m_sorted)
    if m.shape[1] > 1:
        cum_t[:, 1:] = np.cumsum(t_sorted, axis=1)[:, :-1]
        cum_m[:, 1:] = np.cumsum(m_sorted, axis=1)[:, :-1]
    cross = np.sum(m_sorted * cum_t - t_sorted * cum_m, axis=1)
    denom = 2 * total * total * p_overall * (1 - p_overall)
    return 2 * cross / denom


def information(block: CountBlock) -> np.ndarray:
    """Information (entropy) index ``H``, a.k.a. Theil's segregation
    index; nan where the overall entropy is 0."""
    e_overall = _binary_entropy(block.proportion)
    e_units = _binary_entropy(block.unit_proportions)
    weighted = (block.t * e_units).sum(axis=1) / (block.total * e_overall)
    out = 1.0 - weighted
    out[e_overall == 0] = np.nan
    return out


def isolation(block: CountBlock) -> np.ndarray:
    """Isolation ``xPx``: probability that a random minority member
    meets a minority member in her unit."""
    minority_share = block.m / block.minority_total[:, None]
    return (minority_share * block.unit_proportions).sum(axis=1)


def interaction(block: CountBlock) -> np.ndarray:
    """Interaction ``xPy``: probability that a random minority member
    meets a majority member in her unit.  ``xPx + xPy = 1``."""
    t, m = block.t, block.m
    majority_prop = (t - m) / t
    return ((m / block.minority_total[:, None]) * majority_prop).sum(axis=1)


def atkinson(block: CountBlock) -> np.ndarray:
    """Atkinson ``A(b)`` with inequality aversion ``b = 1/2``."""
    p, p_overall = block.unit_proportions, block.proportion
    terms = np.power(1 - p, 0.5) * np.power(p, 0.5) * block.t
    inner = terms.sum(axis=1) / (p_overall * block.total)
    return 1.0 - (p_overall / (1 - p_overall)) * inner ** 2.0
