"""Hand-computed and definitional tests for the six binary indexes.

Every value goes through the shipped kernels, one row at a time
(:meth:`IndexSpec.compute`).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.indexes.base import (
    ATKINSON,
    DISSIMILARITY,
    GINI,
    INFORMATION,
    INTERACTION,
    ISOLATION,
)
from repro.indexes.counts import UnitCounts

from tests.oracles import dissimilarity_naive, gini_naive, is_degenerate

dissimilarity = DISSIMILARITY.compute
gini = GINI.compute
information = INFORMATION.compute
isolation = ISOLATION.compute
interaction = INTERACTION.compute
atkinson = ATKINSON.compute


class TestHandComputedTwoUnits:
    """t=[10,10], m=[8,2]: every value checked by hand (P=0.5)."""

    def test_dissimilarity(self, two_unit_counts):
        assert dissimilarity(two_unit_counts) == pytest.approx(0.6)

    def test_gini(self, two_unit_counts):
        assert gini(two_unit_counts) == pytest.approx(0.6)

    def test_isolation(self, two_unit_counts):
        assert isolation(two_unit_counts) == pytest.approx(0.68)

    def test_interaction(self, two_unit_counts):
        assert interaction(two_unit_counts) == pytest.approx(0.32)

    def test_information(self, two_unit_counts):
        e_unit = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
        assert information(two_unit_counts) == pytest.approx(1 - e_unit)

    def test_atkinson_half(self, two_unit_counts):
        # terms: 2 * 10 * sqrt(0.8*0.2) = 8; inner = 8/10 = 0.8; A = 1-0.8^2
        assert atkinson(two_unit_counts) == pytest.approx(0.36)


class TestHandComputedUnevenUnits:
    """t=[6,4], m=[3,1]: P=0.4, unequal unit sizes."""

    @pytest.fixture()
    def counts(self):
        return UnitCounts([6, 4], [3, 1])

    def test_dissimilarity(self, counts):
        assert dissimilarity(counts) == pytest.approx(0.25)

    def test_gini(self, counts):
        assert gini(counts) == pytest.approx(0.25)

    def test_isolation(self, counts):
        assert isolation(counts) == pytest.approx(0.4375)

    def test_interaction(self, counts):
        assert interaction(counts) == pytest.approx(0.5625)

    def test_information(self, counts):
        def entropy(p):
            return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))

        expected = 1 - (6 * entropy(0.5) + 4 * entropy(0.25)) / (
            10 * entropy(0.4)
        )
        assert information(counts) == pytest.approx(expected)


class TestExtremes:
    def test_complete_segregation_all_ones(self):
        counts = UnitCounts([5, 5, 5, 5], [5, 0, 5, 0])
        assert dissimilarity(counts) == pytest.approx(1.0)
        assert gini(counts) == pytest.approx(1.0)
        assert information(counts) == pytest.approx(1.0)
        assert atkinson(counts) == pytest.approx(1.0)
        assert isolation(counts) == pytest.approx(1.0)
        assert interaction(counts) == pytest.approx(0.0)

    def test_perfect_evenness_all_zeros(self):
        counts = UnitCounts([10, 20, 30], [3, 6, 9])
        assert dissimilarity(counts) == pytest.approx(0.0)
        assert gini(counts) == pytest.approx(0.0, abs=1e-12)
        assert information(counts) == pytest.approx(0.0, abs=1e-12)
        assert atkinson(counts) == pytest.approx(0.0, abs=1e-12)
        assert isolation(counts) == pytest.approx(0.3)
        assert interaction(counts) == pytest.approx(0.7)

    def test_single_unit_is_trivially_even(self):
        counts = UnitCounts([50], [20])
        assert dissimilarity(counts) == pytest.approx(0.0)
        assert gini(counts) == pytest.approx(0.0)
        assert isolation(counts) == pytest.approx(0.4)


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "t, m",
        [
            ([10, 10], [0, 0]),      # no minority
            ([10, 10], [10, 10]),    # no majority
            ([], []),                # empty
        ],
    )
    def test_nan_for_degenerate(self, t, m):
        counts = UnitCounts(t, m)
        for func in (dissimilarity, gini, information, isolation,
                     interaction, atkinson):
            assert math.isnan(func(counts))

    def test_empty_units_are_dropped(self):
        with_empty = UnitCounts([10, 0, 10, 0], [8, 0, 2, 0])
        without = UnitCounts([10, 10], [8, 2])
        assert dissimilarity(with_empty) == pytest.approx(
            dissimilarity(without)
        )
        assert with_empty.n_units == 2


class TestAgainstNaiveOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_gini_matches_double_sum(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.integers(1, 40, size=12)
        m = rng.integers(0, t + 1)
        counts = UnitCounts(t, m)
        if is_degenerate(counts):
            pytest.skip("degenerate draw")
        assert gini(counts) == pytest.approx(gini_naive(counts))

    @pytest.mark.parametrize("seed", range(8))
    def test_dissimilarity_matches_definition(self, seed):
        rng = np.random.default_rng(100 + seed)
        t = rng.integers(1, 40, size=9)
        m = rng.integers(0, t + 1)
        counts = UnitCounts(t, m)
        if is_degenerate(counts):
            pytest.skip("degenerate draw")
        assert dissimilarity(counts) == pytest.approx(
            dissimilarity_naive(counts)
        )
