"""Property-based tests (hypothesis) of segregation-index invariants,
checked on the shipped kernels one row at a time
(:meth:`IndexSpec.compute`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.indexes.base import (
    ATKINSON,
    DISSIMILARITY,
    GINI,
    INFORMATION,
    INTERACTION,
    ISOLATION,
)
from repro.indexes.counts import UnitCounts

from tests.oracles import is_degenerate

dissimilarity = DISSIMILARITY.compute
gini = GINI.compute
information = INFORMATION.compute
isolation = ISOLATION.compute
interaction = INTERACTION.compute
atkinson = ATKINSON.compute

EVENNESS_INDEXES = (DISSIMILARITY, GINI, INFORMATION, ATKINSON)


@st.composite
def unit_counts(draw, min_units=1, max_units=25):
    """Random non-degenerate per-unit counts."""
    n = draw(st.integers(min_units, max_units))
    t = draw(
        st.lists(st.integers(1, 60), min_size=n, max_size=n)
    )
    m = [draw(st.integers(0, ti)) for ti in t]
    counts = UnitCounts(t, m)
    assume(not is_degenerate(counts))
    return counts


@given(unit_counts())
@settings(max_examples=120, deadline=None)
def test_evenness_indexes_in_unit_interval(counts):
    for spec in EVENNESS_INDEXES:
        value = spec.compute(counts)
        assert -1e-9 <= value <= 1 + 1e-9, spec.name


@given(unit_counts())
@settings(max_examples=120, deadline=None)
def test_isolation_plus_interaction_is_one(counts):
    assert isolation(counts) + interaction(counts) == pytest.approx(1.0)


@given(unit_counts())
@settings(max_examples=120, deadline=None)
def test_gini_dominates_dissimilarity(counts):
    assert gini(counts) >= dissimilarity(counts) - 1e-9


@given(unit_counts())
@settings(max_examples=120, deadline=None)
def test_isolation_at_least_overall_proportion(counts):
    assert isolation(counts) >= counts.proportion - 1e-9


@given(unit_counts())
@settings(max_examples=100, deadline=None)
def test_symmetry_under_group_swap(counts):
    """D, G, H and A(0.5) are minority/majority symmetric."""
    swapped = UnitCounts(counts.t, counts.t - counts.m)
    assume(not is_degenerate(swapped))
    assert dissimilarity(counts) == pytest.approx(dissimilarity(swapped))
    assert gini(counts) == pytest.approx(gini(swapped))
    assert information(counts) == pytest.approx(information(swapped))
    assert atkinson(counts) == pytest.approx(atkinson(swapped))


@given(unit_counts())
@settings(max_examples=100, deadline=None)
def test_invariance_under_unit_splitting(counts):
    """Splitting every unit into two equal-proportion halves changes nothing.

    Implemented by duplicating each (t, m) unit: two copies of (t, m)
    carry the same proportions as one (2t, 2m) unit.
    """
    doubled = UnitCounts(
        np.concatenate([counts.t, counts.t]),
        np.concatenate([counts.m, counts.m]),
    )
    merged = UnitCounts(2 * counts.t, 2 * counts.m)
    for func in (dissimilarity, gini, information, isolation, interaction,
                 atkinson):
        assert func(doubled) == pytest.approx(func(merged), abs=1e-9)


@given(unit_counts(), st.integers(2, 7))
@settings(max_examples=100, deadline=None)
def test_scale_invariance(counts, k):
    """Multiplying every count by k leaves all indexes unchanged."""
    scaled = UnitCounts(counts.t * k, counts.m * k)
    for func in (dissimilarity, gini, information, isolation, interaction,
                 atkinson):
        assert func(scaled) == pytest.approx(func(counts), abs=1e-9)


@given(unit_counts())
@settings(max_examples=100, deadline=None)
def test_empty_unit_padding_is_ignored(counts):
    padded = UnitCounts(
        np.concatenate([counts.t, [0, 0, 0]]),
        np.concatenate([counts.m, [0, 0, 0]]),
    )
    for func in (dissimilarity, gini, information, isolation, interaction,
                 atkinson):
        assert func(padded) == pytest.approx(func(counts), abs=1e-12)


@given(unit_counts(min_units=2))
@settings(max_examples=100, deadline=None)
def test_unit_order_irrelevant(counts):
    rng = np.random.default_rng(0)
    perm = rng.permutation(counts.n_units)
    shuffled = UnitCounts(counts.t[perm], counts.m[perm])
    for func in (dissimilarity, gini, information, isolation, interaction,
                 atkinson):
        assert func(shuffled) == pytest.approx(func(counts), abs=1e-9)


@given(st.integers(2, 20), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_complete_segregation_maximises_everything(n_pairs, unit_size):
    """Alternating all-minority/all-majority units: all indexes extreme."""
    t = [unit_size] * (2 * n_pairs)
    m = [unit_size if i % 2 == 0 else 0 for i in range(2 * n_pairs)]
    counts = UnitCounts(t, m)
    assert dissimilarity(counts) == pytest.approx(1.0)
    assert gini(counts) == pytest.approx(1.0)
    assert information(counts) == pytest.approx(1.0)
    assert atkinson(counts) == pytest.approx(1.0)
    assert isolation(counts) == pytest.approx(1.0)
    assert interaction(counts) == pytest.approx(0.0)


@given(st.integers(1, 20), st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_uniform_distribution_minimises_evenness(n_units, minority_per_unit,
                                                 majority_per_unit):
    t = [minority_per_unit + majority_per_unit] * n_units
    m = [minority_per_unit] * n_units
    counts = UnitCounts(t, m)
    assert dissimilarity(counts) == pytest.approx(0.0, abs=1e-12)
    assert gini(counts) == pytest.approx(0.0, abs=1e-12)
    assert information(counts) == pytest.approx(0.0, abs=1e-9)
    assert atkinson(counts) == pytest.approx(0.0, abs=1e-9)
