"""Tests of the UnitCounts container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SegregationIndexError
from repro.indexes.counts import UnitCounts
from repro.indexes.vectorized import CountBlock

from tests.oracles import unit_counts_bruteforce


class TestUnitCountsValidation:
    def test_minority_cannot_exceed_total(self):
        with pytest.raises(SegregationIndexError, match="exceeds total"):
            UnitCounts([5, 5], [6, 0])

    def test_negative_counts_rejected(self):
        with pytest.raises(SegregationIndexError):
            UnitCounts([5, -1], [0, 0])
        with pytest.raises(SegregationIndexError):
            UnitCounts([5, 5], [-1, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SegregationIndexError, match="units"):
            UnitCounts([5, 5, 5], [1, 2])

    def test_two_dimensional_rejected(self):
        with pytest.raises(SegregationIndexError):
            UnitCounts([[1, 2]], [[0, 1]])


class TestUnitCountsDerived:
    def test_aggregates(self):
        counts = UnitCounts([10, 20, 30], [1, 2, 3])
        assert counts.total == 60
        assert counts.minority_total == 6
        assert counts.proportion == pytest.approx(0.1)
        assert counts.n_units == 3

    def test_unit_proportions(self):
        counts = UnitCounts([10, 20], [5, 5])
        assert counts.unit_proportions == pytest.approx([0.5, 0.25])

    def test_degenerate_flags(self):
        """The evaluator's block flags a population without a minority,
        without a majority, or without anyone."""
        def degenerate(t, m):
            counts = UnitCounts(t, m)
            block = CountBlock.of(counts.t, counts.m[None, :])
            return bool(block.degenerate[0])

        assert degenerate([10], [0])
        assert degenerate([10], [10])
        assert degenerate([], [])
        assert degenerate([0, 0], [0, 0])
        assert not degenerate([10], [5])

    def test_repr_mentions_shape(self):
        text = repr(UnitCounts([10, 20], [3, 7]))
        assert "n_units=2" in text and "T=30" in text


class TestFromAssignments:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        units = rng.integers(0, 7, 200)
        minority = rng.random(200) < 0.3
        fast = UnitCounts.from_assignments(units, minority)
        slow = unit_counts_bruteforce(units, minority)
        assert fast.t.tolist() == slow.t.tolist()
        assert fast.m.tolist() == slow.m.tolist()

    def test_n_units_override_pads(self):
        counts = UnitCounts.from_assignments(
            [0, 0, 2], [True, False, True], n_units=5
        )
        # empty units dropped by default
        assert counts.n_units == 2

    def test_negative_unit_rejected(self):
        with pytest.raises(SegregationIndexError):
            UnitCounts.from_assignments([-1, 0], [True, False])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SegregationIndexError):
            UnitCounts.from_assignments([0, 1], [True])

