"""Tests of the temporal validity masks (interval bounds + valid_at)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TableError
from repro.etl.diff import OPEN_END, OPEN_START, interval_bounds, valid_at
from repro.etl.temporal import Interval


class TestIntervalBounds:
    def test_sentinels_for_open_bounds(self):
        starts, ends = interval_bounds(
            [Interval(None, 5), Interval(3, None), Interval(1, 2)]
        )
        assert starts.tolist() == [OPEN_START, 3, 1]
        assert ends.tolist() == [5, OPEN_END, 2]

    def test_plain_tuples_accepted(self):
        starts, ends = interval_bounds([(None, None), (2000, 2004)])
        assert starts.tolist() == [OPEN_START, 2000]
        assert ends.tolist() == [OPEN_END, 2004]


class TestValidAt:
    def test_half_open_semantics(self):
        starts, ends = interval_bounds([Interval(2000, 2005)])
        assert not valid_at(starts, ends, 1999)[0]
        assert valid_at(starts, ends, 2000)[0]
        assert valid_at(starts, ends, 2004)[0]
        assert not valid_at(starts, ends, 2005)[0]

    def test_open_bounds_are_unbounded(self):
        starts, ends = interval_bounds([Interval(None, None)])
        assert valid_at(starts, ends, -(10 ** 12))[0]
        assert valid_at(starts, ends, 10 ** 12)[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(TableError, match="starts"):
            valid_at(np.zeros(3, dtype=np.int64),
                     np.ones(2, dtype=np.int64), 0)

    def test_matches_interval_contains(self):
        intervals = [
            Interval(None, 5), Interval(3, None), Interval(1, 4),
            Interval(None, None),
        ]
        starts, ends = interval_bounds(intervals)
        for date in range(-2, 8):
            mask = valid_at(starts, ends, date)
            for k, interval in enumerate(intervals):
                assert mask[k] == interval.contains(date)
