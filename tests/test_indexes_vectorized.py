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

from repro.indexes.base import DEFAULT_INDEXES, IndexSpec, evaluate
from repro.indexes.counts import UnitCounts

from tests.oracles import SCALAR_INDEXES


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
