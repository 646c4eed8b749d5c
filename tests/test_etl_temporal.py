"""Tests of validity intervals and membership snapshots."""

from __future__ import annotations

import pytest

from repro.errors import TableError
from repro.etl.temporal import (
    ALWAYS,
    Interval,
    MembershipEdge,
    TemporalMembership,
)


class TestInterval:
    def test_contains_half_open(self):
        interval = Interval(2000, 2005)
        assert not interval.contains(1999)
        assert interval.contains(2000)
        assert interval.contains(2004)
        assert not interval.contains(2005)

    def test_open_bounds(self):
        assert Interval(None, 2005).contains(-10_000)
        assert Interval(2000, None).contains(10_000)
        assert ALWAYS.contains(0)

    def test_invalid_order_rejected(self):
        with pytest.raises(TableError):
            Interval(2005, 2005)
        with pytest.raises(TableError):
            Interval(2005, 2000)

    def test_contains_at_open_bounds_extremes(self):
        assert Interval(None, 2005).contains(2004)
        assert not Interval(None, 2005).contains(2005)
        assert Interval(2000, None).contains(2000)
        assert not Interval(2000, None).contains(1999)


class TestTemporalMembership:
    @pytest.fixture()
    def membership(self):
        return TemporalMembership.from_records(
            [
                (0, 100, 2000, 2005),
                (0, 101, 2003, None),
                (1, 100, None, 2002),
                (2, 102, None, None),
            ]
        )

    def test_snapshot_filters_by_date(self, membership):
        assert sorted(membership.snapshot(2001)) == [(0, 100), (1, 100), (2, 102)]
        assert sorted(membership.snapshot(2004)) == [(0, 100), (0, 101), (2, 102)]
        assert sorted(membership.snapshot(2010)) == [(0, 101), (2, 102)]

    def test_snapshot_none_returns_all(self, membership):
        assert len(membership.snapshot(None)) == 4

    def test_active_sets(self, membership):
        pairs = membership.snapshot(2004)
        assert {individual for individual, _ in pairs} == {0, 2}
        assert {group for _, group in pairs} == {100, 101, 102}

    def test_span(self, membership):
        assert membership.span() == (2000, 2005)

    def test_span_unbounded(self):
        membership = TemporalMembership.from_pairs([(0, 1)])
        assert membership.span() == (None, None)

    def test_from_pairs_untimed(self):
        membership = TemporalMembership.from_pairs([(0, 1), (2, 3)])
        assert membership.snapshot(1234) == [(0, 1), (2, 3)]

    def test_add_and_len(self):
        membership = TemporalMembership()
        membership.add(MembershipEdge(1, 2))
        assert len(membership) == 1
        assert list(membership)[0].individual == 1

    def test_dates_are_sorted_unique_endpoints(self, membership):
        # Intervals: [2000,2005), [2003,None), [None,2002), [None,None).
        assert membership.dates() == [2000, 2002, 2003, 2005]

    def test_dates_ignore_open_bounds(self):
        membership = TemporalMembership.from_pairs([(0, 1), (2, 3)])
        assert membership.dates() == []

    def test_dates_enumerate_every_membership_state(self, membership):
        # The relation only changes at an interval endpoint, so every
        # state observable at any date in the span is witnessed by some
        # endpoint date.
        dates = membership.dates()
        seen = {tuple(sorted(membership.snapshot(d))) for d in dates}
        for d in range(min(dates), max(dates) + 1):
            assert tuple(sorted(membership.snapshot(d))) in seen
