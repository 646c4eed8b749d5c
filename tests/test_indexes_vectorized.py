"""Kernel-vs-reference index parity: the cube fill's correctness pin.

Every shipped kernel, run through :func:`~repro.indexes.base.evaluate`
(the one evaluator: block prepared once, float64 cast, empty units
dropped, degenerate rows set to nan), must reproduce the scalar formula
kept in ``tests/oracles.py`` to the bit, row by row — the cube is
advertised as identical to a one-cell-at-a-time fill over those
formulas, so these tests assert exact float equality (no tolerance),
including the nan pattern.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.base import DEFAULT_INDEXES, GINI, IndexSpec, evaluate
from repro.indexes.counts import UnitCounts

from tests.oracles import SCALAR_INDEXES, gini as gini_reference


def _assert_kernels_match_reference(t: np.ndarray, m: np.ndarray) -> None:
    values = evaluate(DEFAULT_INDEXES, t, m)
    assert values.shape == (len(DEFAULT_INDEXES), len(m))
    for spec, got in zip(DEFAULT_INDEXES, values):
        want = np.array(
            [SCALAR_INDEXES[spec.name](UnitCounts(t, row)) for row in m],
            dtype=np.float64,
        )
        assert np.array_equal(got, want, equal_nan=True), (
            f"{spec.name}: kernel {got} != reference {want} for t={t}, m={m}"
        )


@st.composite
def count_batches(draw, min_units=1, max_units=30, max_cells=8):
    """Random ``(t, m)`` batches, zeros (empty units) included."""
    n = draw(st.integers(min_units, max_units))
    t = np.array(
        draw(st.lists(st.integers(0, 80), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    n_cells = draw(st.integers(0, max_cells))
    m = np.array(
        [
            [draw(st.integers(0, int(ti))) for ti in t]
            for _ in range(n_cells)
        ],
        dtype=np.float64,
    ).reshape(n_cells, n)
    return t, m


@given(count_batches())
@settings(max_examples=150, deadline=None)
def test_batch_kernels_bit_identical(batch):
    _assert_kernels_match_reference(*batch)


class TestEdgeCases:
    def test_all_zero_units(self):
        t = np.zeros(4)
        m = np.zeros((3, 4))
        # Everything degenerate: nan across the board, like the reference.
        assert np.isnan(evaluate(DEFAULT_INDEXES, t, m)).all()
        _assert_kernels_match_reference(t, m)

    def test_single_unit(self):
        t = np.array([10.0])
        m = np.array([[0.0], [4.0], [10.0]])
        _assert_kernels_match_reference(t, m)

    def test_empty_minority_rows_are_nan(self):
        t = np.array([5.0, 7.0, 3.0])
        m = np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 1.0]])
        assert np.isnan(evaluate(DEFAULT_INDEXES, t, m)[:, 0]).all()
        _assert_kernels_match_reference(t, m)

    def test_full_minority_rows_are_nan(self):
        t = np.array([5.0, 7.0])
        m = np.array([[5.0, 7.0]])
        assert np.isnan(evaluate(DEFAULT_INDEXES, t, m)).all()

    def test_zero_cells(self):
        t = np.array([5.0, 7.0])
        m = np.zeros((0, 2))
        assert evaluate(DEFAULT_INDEXES, t, m).shape == (6, 0)

    def test_fortran_ordered_input_still_bit_identical(self):
        t = np.array([6.0, 9.0, 4.0, 7.0, 3.0, 8.0, 5.0, 9.0, 2.0, 6.0])
        m = np.asfortranarray(
            [[3.0, 2.0, 1.0, 5.0, 0.0, 4.0, 5.0, 1.0, 2.0, 3.0],
             [0.0, 9.0, 0.0, 1.0, 3.0, 8.0, 0.0, 9.0, 0.0, 6.0],
             [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]
        )
        _assert_kernels_match_reference(t, m)

    def test_mixed_empty_units_dropped_like_scalar(self):
        t = np.array([6.0, 0.0, 9.0, 0.0, 4.0])
        m = np.array([[3.0, 0.0, 2.0, 0.0, 1.0],
                      [0.0, 0.0, 9.0, 0.0, 0.0]])
        _assert_kernels_match_reference(t, m)


@st.composite
def tie_heavy_blocks(draw):
    """Blocks full of tied proportions, with a permutation of their units.

    Unit counts are 0-6 and every unit repeats one of a few ``(t, m)``
    column templates, so most rows hold equal ``p_i`` many times over.
    """
    n_cells = draw(st.integers(1, 6))
    templates = []
    for _ in range(draw(st.integers(1, 5))):
        t_c = draw(st.integers(0, 6))
        m_c = draw(st.lists(st.integers(0, t_c),
                            min_size=n_cells, max_size=n_cells))
        templates.append((t_c, m_c))
    picks = draw(st.lists(st.integers(0, len(templates) - 1),
                          min_size=1, max_size=40))
    t = np.array([templates[k][0] for k in picks], dtype=np.float64)
    m = np.array([templates[k][1] for k in picks], dtype=np.float64).T
    perm = np.array(draw(st.permutations(range(len(picks)))), dtype=np.int64)
    return t, np.ascontiguousarray(m), perm


class TestGiniExactness:
    """Gini's numerator is an exact integer below ``T^2 < 2^53``, so
    neither tie order nor unit order can move a bit."""

    @given(tie_heavy_blocks())
    @settings(max_examples=200, deadline=None)
    def test_unit_permutation_and_ties_keep_every_bit(self, batch):
        t, m, perm = batch
        got = evaluate([GINI], t, m)[0]
        permuted = evaluate([GINI], t[perm], m[:, perm])[0]
        assert np.array_equal(got, permuted, equal_nan=True)
        # The reference is nan exactly on degenerate rows.
        want = [gini_reference(UnitCounts(t, row)) for row in m]
        assert np.array_equal(got, want, equal_nan=True)

    def test_largest_exact_population(self):
        """At ``T = 94,906,265`` (``T^2 < 2^53 < (T+1)^2``) the kernel,
        the reference and the exact integer numerator all agree."""
        total = 94_906_265
        assert total ** 2 < 2 ** 53 < (total + 1) ** 2
        rng = np.random.default_rng(5)
        half = rng.multinomial(total // 2 - 100, np.full(100, 0.01)) + 1
        t = np.concatenate([half, half, [total - 2 * half.sum()]])
        assert len(t) == 201 and t.sum() == total
        twin = rng.integers(0, half + 1)
        m = np.array([
            rng.integers(0, t + 1),                       # scattered
            np.concatenate([twin, twin, [1]]),            # tied twins
            np.concatenate([half, np.zeros_like(half), [0]]),  # segregated
            np.concatenate([half // 2, half // 3, [1]]),
            t - (np.arange(len(t)) % 2),                  # near-full
        ])
        got = evaluate([GINI], t, m)[0]
        want = [gini_reference(UnitCounts(t, row)) for row in m]
        assert np.array_equal(got, want)
        for row, value in zip(m, got):
            # sum_{i<j} |m_j t_i - m_i t_j|, in int64 (below 2 T^2).
            cross = int(np.abs(np.outer(t, row) - np.outer(row, t)).sum()) // 2
            p = row.sum() / float(total)
            denom = 2 * float(total) * float(total) * p * (1 - p)
            assert value == float(2 * cross) / denom


class TestCustomKernel:
    def test_custom_kernel_runs_on_the_evaluator(self):
        """A kernel reads the prepared block; degenerate rows are nan
        whatever it returns there."""
        spec = IndexSpec(
            "TestProp", "Minority proportion",
            lambda block: block.proportion, (0.0, 1.0), True,
        )
        t = np.array([4.0, 0.0, 6.0])
        m = np.array([[1.0, 0.0, 2.0], [4.0, 0.0, 6.0], [0.0, 0.0, 3.0]])
        values = evaluate([spec], t, m)[0]
        assert np.array_equal(values, [0.3, np.nan, 0.3], equal_nan=True)
        assert spec.compute(UnitCounts(t, m[2])) == 0.3
