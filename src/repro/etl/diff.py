"""Validity masks for the temporal snapshots of one table.

The temporal workload (paper §3: membership pairs carry validity
intervals, a list of snapshot ``dates`` selects what to analyse) makes
every snapshot date a *row subset* of one union table: encode the union
once, then a date is the boolean mask of rows whose interval contains
it (:func:`valid_at`).  What changed between two dates is the XOR of
their masks; the incremental cube fill (:mod:`repro.cube.incremental`)
takes it on the dates' live-row covers.

Open interval bounds (``None`` in :class:`~repro.etl.temporal.Interval`)
are represented by the int64 sentinels :data:`OPEN_START` /
:data:`OPEN_END` so validity tests stay vectorized.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.errors import TableError
from repro.etl.temporal import Interval

#: Sentinel for an open ``start`` bound ("since forever").
OPEN_START = np.iinfo(np.int64).min
#: Sentinel for an open ``end`` bound ("still valid").
OPEN_END = np.iinfo(np.int64).max


def interval_bounds(
    intervals: "Iterable[Interval | tuple[Optional[int], Optional[int]]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorize intervals into sentinel-encoded ``(starts, ends)`` arrays."""
    starts: list[int] = []
    ends: list[int] = []
    for interval in intervals:
        if isinstance(interval, Interval):
            start, end = interval.start, interval.end
        else:
            start, end = interval
        starts.append(OPEN_START if start is None else int(start))
        ends.append(OPEN_END if end is None else int(end))
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
    )


def valid_at(starts: np.ndarray, ends: np.ndarray, date: int) -> np.ndarray:
    """Boolean mask of rows whose half-open interval contains ``date``."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape:
        raise TableError(
            f"{len(starts)} interval starts for {len(ends)} ends"
        )
    return (starts <= date) & (date < ends)
