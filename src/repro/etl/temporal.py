"""Temporal membership: validity intervals and snapshots.

The paper (§3, Inputs) allows membership pairs ``(individualID, groupID)``
to be labelled with a *time interval of validity*, enabling temporal
segregation analysis; a list of *snapshot dates* selects the membership
relations to analyse.  The Estonian case study uses a 20-year span.

Dates are modelled as plain integers (e.g. years, or ``date.toordinal()``
values); the library is agnostic to the granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import TableError


@dataclass(frozen=True)
class Interval:
    """A half-open validity interval ``[start, end)``.

    ``None`` bounds mean "since forever" / "still valid".
    """

    start: Optional[int] = None
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start is not None and self.end is not None and self.end <= self.start:
            raise TableError(
                f"interval end {self.end} must be after start {self.start}"
            )

    def contains(self, date: int) -> bool:
        """True if ``date`` falls inside the interval."""
        if self.start is not None and date < self.start:
            return False
        if self.end is not None and date >= self.end:
            return False
        return True


ALWAYS = Interval(None, None)


@dataclass(frozen=True)
class MembershipEdge:
    """One individual-group membership, optionally time-bounded."""

    individual: int
    group: int
    interval: Interval = ALWAYS


class TemporalMembership:
    """The membership relation of the bipartite individuals×groups graph.

    Supports snapshot extraction at given dates (paper input
    ``dates``) and simple timeline statistics.
    """

    def __init__(self, edges: Iterable[MembershipEdge] = ()):
        self._edges: list[MembershipEdge] = list(edges)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "TemporalMembership":
        """Build an untimed membership from ``(individual, group)`` pairs."""
        return cls(MembershipEdge(i, g) for i, g in pairs)

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[int, int, Optional[int], Optional[int]]]
    ) -> "TemporalMembership":
        """Build from ``(individual, group, start, end)`` records."""
        return cls(
            MembershipEdge(i, g, Interval(s, e)) for i, g, s, e in records
        )

    def add(self, edge: MembershipEdge) -> None:
        """Append one membership edge."""
        self._edges.append(edge)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[MembershipEdge]:
        return iter(self._edges)

    def snapshot(self, date: Optional[int] = None) -> list[tuple[int, int]]:
        """Membership pairs valid at ``date`` (``None`` = ignore intervals)."""
        if date is None:
            return [(e.individual, e.group) for e in self._edges]
        return [
            (e.individual, e.group) for e in self._edges if e.interval.contains(date)
        ]

    def span(self) -> tuple[Optional[int], Optional[int]]:
        """The smallest interval covering all bounded edges (None = unbounded)."""
        starts = [e.interval.start for e in self._edges if e.interval.start is not None]
        ends = [e.interval.end for e in self._edges if e.interval.end is not None]
        return (min(starts) if starts else None, max(ends) if ends else None)

    def dates(self) -> "list[int]":
        """Sorted set of all finite interval endpoints.

        The membership relation only changes at an interval boundary, so
        these are the *natural* snapshot dates (the paper's ``dates``
        input): evaluating at every returned date observes every
        distinct membership state the data can produce.  Open (``None``)
        bounds contribute no endpoint.
        """
        endpoints: set[int] = set()
        for edge in self._edges:
            if edge.interval.start is not None:
                endpoints.add(edge.interval.start)
            if edge.interval.end is not None:
                endpoints.add(edge.interval.end)
        return sorted(endpoints)
