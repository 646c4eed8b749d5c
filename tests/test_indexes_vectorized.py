"""Batched-vs-scalar index parity: the columnar fill's correctness pin.

Every ``IndexSpec.batch_func`` must reproduce the scalar ``func`` to the
bit — the columnar cube fill is advertised as producing *identical*
cubes, so these property tests assert exact float equality (no
tolerance), including the degenerate-``nan`` cases.  The batch side
goes through :func:`~repro.cube.builder.eval_context_block`, the fill's
one preparation (float64 cast, empty units dropped) and dispatch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.builder import eval_context_block
from repro.indexes.base import DEFAULT_INDEXES, IndexSpec
from repro.indexes.counts import UnitCounts


def _batch(spec: IndexSpec, t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """One index over every row of ``m``, as the fill evaluates it."""
    _, _, values = eval_context_block([spec], t, m, minsup_min=0)
    return values[0]


def _assert_batch_matches_scalar(spec: IndexSpec, t: np.ndarray,
                                 m: np.ndarray) -> None:
    batch = _batch(spec, t, m)
    assert batch.shape == (len(m),)
    scalar = np.array(
        [spec.compute(UnitCounts(t, row)) for row in m], dtype=np.float64
    )
    both_nan = np.isnan(batch) & np.isnan(scalar)
    assert ((batch == scalar) | both_nan).all(), (
        f"{spec.name}: batch {batch} != scalar {scalar} for t={t}, m={m}"
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
    t, m = batch
    for spec in DEFAULT_INDEXES:
        _assert_batch_matches_scalar(spec, t, m)


class TestEdgeCases:
    def test_all_zero_units(self):
        t = np.zeros(4)
        m = np.zeros((3, 4))
        for spec in DEFAULT_INDEXES:
            # Everything degenerate: nan across the board, like scalar.
            assert np.isnan(_batch(spec, t, m)).all()

    def test_single_unit(self):
        t = np.array([10.0])
        m = np.array([[0.0], [4.0], [10.0]])
        for spec in DEFAULT_INDEXES:
            _assert_batch_matches_scalar(spec, t, m)

    def test_empty_minority_rows_are_nan(self):
        t = np.array([5.0, 7.0, 3.0])
        m = np.array([[0.0, 0.0, 0.0], [2.0, 3.0, 1.0]])
        for spec in DEFAULT_INDEXES:
            values = _batch(spec, t, m)
            assert np.isnan(values[0])
            _assert_batch_matches_scalar(spec, t, m)

    def test_full_minority_rows_are_nan(self):
        t = np.array([5.0, 7.0])
        m = np.array([[5.0, 7.0]])
        for spec in DEFAULT_INDEXES:
            assert np.isnan(_batch(spec, t, m)).all()

    def test_zero_cells(self):
        t = np.array([5.0, 7.0])
        m = np.zeros((0, 2))
        for spec in DEFAULT_INDEXES:
            assert _batch(spec, t, m).shape == (0,)

    def test_fortran_ordered_input_still_bit_identical(self):
        t = np.array([6.0, 9.0, 4.0, 7.0])
        m = np.asfortranarray(
            [[3.0, 2.0, 1.0, 5.0], [0.0, 9.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
        )
        for spec in DEFAULT_INDEXES:
            _assert_batch_matches_scalar(spec, t, m)

    def test_mixed_empty_units_dropped_like_scalar(self):
        t = np.array([6.0, 0.0, 9.0, 0.0, 4.0])
        m = np.array([[3.0, 0.0, 2.0, 0.0, 1.0],
                      [0.0, 0.0, 9.0, 0.0, 0.0]])
        for spec in DEFAULT_INDEXES:
            _assert_batch_matches_scalar(spec, t, m)


class TestDispatch:
    def test_scalar_fallback_without_batch_func(self):
        spec = IndexSpec(
            "TestProp", "Minority proportion",
            lambda c: c.proportion, (0.0, 1.0), True,
        )
        assert spec.batch_func is None
        t = np.array([4.0, 0.0, 6.0])
        m = np.array([[1.0, 0.0, 2.0], [4.0, 0.0, 6.0]])
        values = _batch(spec, t, m)
        expected = [3 / 10, 1.0]
        assert values == pytest.approx(expected)
