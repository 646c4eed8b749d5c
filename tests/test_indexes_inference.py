"""Tests of bootstrap confidence intervals and randomisation tests."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import SegregationIndexError
from repro.indexes.base import DEFAULT_INDEXES, DISSIMILARITY, get_index
from repro.indexes.counts import UnitCounts
from repro.indexes.inference import bootstrap_ci, randomization_test

from tests.oracles import (
    SCALAR_INDEXES,
    bootstrap_reference,
    randomization_reference,
)


#: Inputs for the exactness checks: strongly segregated, small units
#: (some draws degenerate), twelve units (row sums past NumPy's
#: eight-way unrolled block), and a population without a minority.
EXACT_CASES = (
    UnitCounts([50, 50], [45, 5]),
    UnitCounts([3, 4, 5, 2], [1, 0, 5, 1]),
    UnitCounts([9, 14, 7, 20, 11, 6, 13, 8, 17, 5, 10, 12],
               [2, 9, 1, 15, 3, 0, 7, 2, 11, 5, 4, 6]),
    UnitCounts([10, 10], [0, 0]),
)


def _same(got, want) -> bool:
    """Field-by-field equality of two result dataclasses, nan == nan."""
    return all(
        a == b or (math.isnan(a) and math.isnan(b))
        for a, b in zip(dataclasses.astuple(got), dataclasses.astuple(want))
    )


@pytest.fixture()
def segregated():
    """Strongly segregated counts: D = 0.8."""
    return UnitCounts([50, 50], [45, 5])


@pytest.fixture()
def balanced():
    """Perfectly even counts: D = 0."""
    return UnitCounts([50, 50], [15, 15])


class TestBootstrap:
    def test_interval_contains_estimate_for_stable_data(self, segregated):
        result = bootstrap_ci(DISSIMILARITY, segregated, n_boot=200, seed=1)
        assert result.low <= result.estimate <= result.high
        assert result.estimate == pytest.approx(0.8)

    def test_interval_is_ordered_and_bounded(self, segregated):
        result = bootstrap_ci(DISSIMILARITY, segregated, n_boot=200, seed=2)
        assert 0.0 <= result.low <= result.high <= 1.0

    def test_reproducible_with_seed(self, segregated):
        a = bootstrap_ci(DISSIMILARITY, segregated, n_boot=100, seed=7)
        b = bootstrap_ci(DISSIMILARITY, segregated, n_boot=100, seed=7)
        assert (a.low, a.high) == (b.low, b.high)

    def test_different_seeds_differ(self, segregated):
        a = bootstrap_ci(DISSIMILARITY, segregated, n_boot=100, seed=1)
        b = bootstrap_ci(DISSIMILARITY, segregated, n_boot=100, seed=2)
        assert (a.low, a.high) != (b.low, b.high)

    def test_invalid_parameters(self, segregated):
        with pytest.raises(SegregationIndexError):
            bootstrap_ci(DISSIMILARITY, segregated, n_boot=0)

    def test_narrower_interval_with_larger_units(self):
        small = UnitCounts([20, 20], [15, 5])
        large = UnitCounts([2000, 2000], [1500, 500])
        r_small = bootstrap_ci(DISSIMILARITY, small, n_boot=200, seed=3)
        r_large = bootstrap_ci(DISSIMILARITY, large, n_boot=200, seed=3)
        assert (r_large.high - r_large.low) < (r_small.high - r_small.low)


class TestRandomization:
    def test_segregated_data_is_significant(self, segregated):
        result = randomization_test(DISSIMILARITY, segregated,
                                    n_permutations=300, seed=0)
        assert result.p_value < 0.02
        assert result.observed == pytest.approx(0.8)
        assert result.excess > 0.5

    def test_even_data_is_not_significant(self, balanced):
        result = randomization_test(DISSIMILARITY, balanced,
                                    n_permutations=300, seed=0)
        assert result.p_value > 0.5
        assert result.observed == pytest.approx(0.0)

    def test_expected_under_null_positive_small_sample(self):
        """Random segregation baseline: D > 0 in expectation for small M."""
        counts = UnitCounts([10] * 10, [1] * 10)
        result = randomization_test(DISSIMILARITY, counts,
                                    n_permutations=200, seed=4)
        assert result.expected_under_null > 0.1

    def test_reproducible_with_seed(self, segregated):
        a = randomization_test(DISSIMILARITY, segregated, n_permutations=50,
                               seed=9)
        b = randomization_test(DISSIMILARITY, segregated, n_permutations=50,
                               seed=9)
        assert a.p_value == b.p_value

    def test_invalid_parameters(self, segregated):
        with pytest.raises(SegregationIndexError):
            randomization_test(DISSIMILARITY, segregated, n_permutations=0)

    def test_works_with_registered_indexes(self, segregated):
        for name in ("D", "G", "H", "Iso", "A"):
            spec = get_index(name)
            result = randomization_test(spec, segregated,
                                        n_permutations=50, seed=0)
            assert not math.isnan(result.p_value)


@pytest.mark.parametrize("spec", DEFAULT_INDEXES, ids=lambda s: s.name)
class TestExactAgainstScalarLoop:
    """The draws, stacked into one block and evaluated by the kernels,
    give exactly what one scalar reference evaluation per draw gives."""

    def test_bootstrap(self, spec):
        for k, counts in enumerate(EXACT_CASES):
            got = bootstrap_ci(spec, counts, n_boot=150, seed=k)
            want = bootstrap_reference(SCALAR_INDEXES[spec.name], counts,
                                       n_boot=150, seed=k)
            assert _same(got, want), (spec.name, k, got, want)
        assert math.isnan(got.estimate) and math.isnan(got.low)

    def test_randomization(self, spec):
        for k, counts in enumerate(EXACT_CASES):
            got = randomization_test(spec, counts, n_permutations=150,
                                     seed=k)
            want = randomization_reference(SCALAR_INDEXES[spec.name],
                                           counts, n_permutations=150,
                                           seed=k)
            assert _same(got, want), (spec.name, k, got, want)
        assert math.isnan(got.observed) and math.isnan(got.p_value)
