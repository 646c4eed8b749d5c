"""Batched segregation-index kernels: all cells of a context at once.

The columnar cube fill (:mod:`repro.cube.builder`) evaluates every cell
sharing a context in one shot: the context contributes a single per-unit
population vector ``t`` of shape ``(n_units,)`` and the cells contribute
a minority-count matrix ``m`` of shape ``(n_cells, n_units)`` — one row
per cell, aligned on the same units.  Each kernel here returns a float64
vector of shape ``(n_cells,)`` holding the index value of every row.

The kernels are transcriptions of :mod:`repro.indexes.binary` with the
reductions moved to ``axis=1``; every intermediate uses the exact same
elementwise operations in the same order, so results are **bit-identical**
to calling the scalar function row by row (property-tested in
``tests/test_indexes_vectorized.py``).  Degenerate rows — empty
population, empty minority or empty majority — come out as ``nan``,
matching the scalar convention.

Kernels assume the caller already dropped empty units (``t > 0``
everywhere), mirroring ``UnitCounts(drop_empty=True)``; the fill's one
preparation, :func:`repro.cube.builder.eval_context_block`, performs
that drop before it dispatches through
:meth:`repro.indexes.base.IndexSpec.compute_batch_prepared`.
"""

from __future__ import annotations

import numpy as np

from repro.indexes.binary import _binary_entropy


def _aggregates(t: np.ndarray, m: np.ndarray):
    """Shared per-row aggregates: ``(degenerate, T, M_row, P_row)``."""
    total = float(t.sum())
    m_tot = m.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_overall = m_tot / total if total > 0 else np.full(len(m), np.nan)
    degenerate = (m_tot == 0) | ((total - m_tot) == 0)
    if total == 0:
        degenerate = np.ones(len(m), dtype=bool)
    return degenerate, total, m_tot, p_overall


def _unit_proportions(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-wise ``p_i = m_i / t_i`` (same guard as UnitCounts)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(t > 0, m / np.maximum(t, 1e-300), 0.0)


def dissimilarity(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Batched Dissimilarity ``D`` (see :func:`repro.indexes.binary.dissimilarity`)."""
    degenerate, total, m_tot, _ = _aggregates(t, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        minority_share = m / m_tot[:, None]
        majority_share = (t - m) / (total - m_tot)[:, None]
        out = 0.5 * np.abs(minority_share - majority_share).sum(axis=1)
    out[degenerate] = np.nan
    return out


def gini(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Batched Gini ``G``: the sorted-prefix formulation, row-wise."""
    degenerate, total, m_tot, p_overall = _aggregates(t, m)
    p = _unit_proportions(t, m)
    order = np.argsort(p, axis=1, kind="stable")
    t_sorted = np.take_along_axis(np.broadcast_to(t, m.shape), order, axis=1)
    m_sorted = np.take_along_axis(m, order, axis=1)
    cum_t = np.zeros_like(t_sorted)
    cum_m = np.zeros_like(m_sorted)
    if m.shape[1] > 1:
        cum_t[:, 1:] = np.cumsum(t_sorted, axis=1)[:, :-1]
        cum_m[:, 1:] = np.cumsum(m_sorted, axis=1)[:, :-1]
    cross = np.sum(m_sorted * cum_t - t_sorted * cum_m, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = 2 * total * total * p_overall * (1 - p_overall)
        out = 2 * cross / denom
    out[degenerate] = np.nan
    return out


def information(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Batched Information (entropy) index ``H``."""
    degenerate, total, m_tot, p_overall = _aggregates(t, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        e_overall = np.asarray(_binary_entropy(p_overall))
        e_units = _binary_entropy(_unit_proportions(t, m))
        weighted = (t * e_units).sum(axis=1) / (total * e_overall)
        out = 1.0 - weighted
    out[degenerate | (e_overall == 0)] = np.nan
    return out


def isolation(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Batched Isolation ``xPx``."""
    degenerate, total, m_tot, _ = _aggregates(t, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = ((m / m_tot[:, None]) * _unit_proportions(t, m)).sum(axis=1)
    out[degenerate] = np.nan
    return out


def interaction(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Batched Interaction ``xPy``."""
    degenerate, total, m_tot, _ = _aggregates(t, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        majority_prop = (t - m) / t
        out = ((m / m_tot[:, None]) * majority_prop).sum(axis=1)
    out[degenerate] = np.nan
    return out


def atkinson(t: np.ndarray, m: np.ndarray, b: float = 0.5) -> np.ndarray:
    """Batched Atkinson ``A(b)``."""
    if not 0 < b < 1:
        raise ValueError(f"Atkinson shape parameter b must be in (0,1), got {b}")
    degenerate, total, m_tot, p_overall = _aggregates(t, m)
    p = _unit_proportions(t, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.power(1 - p, 1 - b) * np.power(p, b) * t
        inner = terms.sum(axis=1) / (p_overall * total)
        out = 1.0 - (p_overall / (1 - p_overall)) * inner ** (1.0 / (1.0 - b))
    out[degenerate] = np.nan
    return out
