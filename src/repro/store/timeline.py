"""CubeTimeline: a dated directory of cube snapshots, deltas included.

A timeline is a directory whose integer-named children are snapshot
directories, one per snapshot date::

    timeline/
      timeline.json   freshness + per-date chain stats (advisory)
      1998/   full snapshot (the timeline root)
      2003/   delta, parent ../1998
      2008/   delta, parent ../2003
      ...
      2043/   full snapshot (a checkpoint: the chain reached MAX_CHAIN)
      2048/   delta, parent ../2043

Each child is an ordinary :mod:`repro.store` snapshot — full or delta —
so every date reopens through :func:`~repro.store.snapshot.open_snapshot`
with the usual validation, and the whole tree relocates as one unit
(delta parents are relative paths).  :class:`CubeTimeline` lists the
dates and opens one date's cube at a time.  It holds only the cube it
opened last, and opens the next date by composing onto that cube when
the date's delta chain runs through it.  A walk over the dates is
therefore one stream: each date is one hop onto the date before it
(O(dates) time), and the walk holds one delta chain at a time, not one
cube per date.  The serving layer (``CubeService(..., date=...)``), the
timeline comparison (:func:`repro.cube.compare.timeline_series`) and
the cube-backed trend (:func:`repro.core.trend.segregation_trend`) all
read a timeline this way.  :func:`timeline_changes` keeps what one walk
saw as each date's changes since the date before, which a serving
trend reads again and again without reopening a date.

:func:`dump_into_timeline` writes one dated entry — the persistence
half of the incremental temporal fill (:mod:`repro.cube.incremental`).

**The publish rule.**  A delta chain grows one hop per published date,
and every hop adds a compose-and-verify step to opening the newest
date.  :func:`dump_into_timeline` therefore decides once, when it
writes a date, whether the date is a delta on its parent date or a
full snapshot:

* full when there is no parent date, or when the parent's chain is
  already :data:`MAX_CHAIN` hops long;
* otherwise a delta — unless the delta's own bytes would reach
  :data:`MIN_BYTE_RATIO` of its chain root's bytes (it barely saves
  anything, so the hop is pure cost), in which case the date is a full
  snapshot.

The delta is laid out first (:func:`~repro.store.snapshot.plan_delta`),
so its own bytes are known before anything is written, and the date is
written once, as the delta or as the full snapshot.  No chain the
publisher writes is longer than :data:`MAX_CHAIN` (timelines written
earlier with longer chains still open unchanged).  A publish writes
only ``<root>/<date>/`` and ``timeline.json``; it never renames,
rewrites or deletes a date already published.  The date's directory is
written through the file layer's dump protocol
(:func:`~repro.store.manifest.write_directory`): the data file and its
directory entry are fsynced before the manifest is written, so a crash
at any point, power loss included, leaves a manifest-less directory
(which :func:`timeline_dates` does not list) or a complete snapshot.
Because no date changes once a child may reference it, a reader never
finds a delta whose parent is missing.

``timeline.json`` records each date's chain length and own byte size
(the planned bytes, which are the bytes written), plus the last publish
timestamp (the serving tier's staleness metric).
A publish writes it once, after the date's own manifest.  Publishing
assumes a single writer.
"""

from __future__ import annotations

import json
import os
import threading
from datetime import datetime, timezone
from pathlib import Path

from repro.cube.cube import SegregationCube
from repro.cube.table import CellTable
from repro.errors import SnapshotError
from repro.itemsets.items import ItemDictionary
from repro.store.manifest import (
    MANIFEST_NAME,
    read_json,
    write_atomic,
    write_directory,
)
from repro.store.snapshot import (
    changed_cells,
    delta_chain,
    open_snapshot,
    plan_delta,
    plan_snapshot,
    snapshot_disk_bytes,
)

#: The timeline-level manifest file (freshness + per-date chain stats).
TIMELINE_MANIFEST_NAME = "timeline.json"
TIMELINE_FORMAT_VERSION = 1

#: A publish writes a full snapshot once its parent's chain is this
#: many hops long, so no chain the publisher writes is longer.
MAX_CHAIN = 8

#: A date whose delta's own bytes would reach this fraction of its
#: chain root's bytes is written as a full snapshot instead.
MIN_BYTE_RATIO = 0.5


def timeline_dates(root: "str | Path") -> "list[int]":
    """Sorted snapshot dates found under a timeline directory.

    A date is an integer-named child directory that holds a manifest.
    One ``os.scandir`` lists the children, so the listing costs one
    ``stat`` per date (its manifest) on every restart and refresh.
    """
    try:
        entries = os.scandir(root)
    except OSError as exc:
        raise SnapshotError(
            f"timeline directory {root} does not exist"
        ) from exc
    dates = []
    with entries:
        for entry in entries:
            try:
                date = int(entry.name)
            except ValueError:
                continue
            if entry.is_dir() and os.path.isfile(
                os.path.join(entry.path, MANIFEST_NAME)
            ):
                dates.append(date)
    return sorted(dates)


# ----------------------------------------------------------------------
# Timeline manifest (freshness + measured chain stats)
# ----------------------------------------------------------------------

def read_timeline_manifest(root: "str | Path") -> dict:
    """The timeline's ``timeline.json`` payload (defaults when absent).

    The manifest is advisory — a timeline without one (hand-built
    fixtures, trees copied without it) reads as an empty record — but a
    *corrupt* one raises :class:`~repro.errors.SnapshotError` rather
    than silently resetting measured history.
    """
    path = Path(root) / TIMELINE_MANIFEST_NAME
    if not path.is_file():
        return {
            "format_version": TIMELINE_FORMAT_VERSION,
            "last_publish_at": None,
            "dates": {},
        }
    payload = read_json(path, "timeline")
    if not isinstance(payload.get("dates", {}), dict):
        raise SnapshotError(f"malformed timeline manifest {path}")
    payload.setdefault("format_version", TIMELINE_FORMAT_VERSION)
    payload.setdefault("last_publish_at", None)
    payload.setdefault("dates", {})
    return payload


def write_timeline_manifest(root: "str | Path", payload: dict) -> Path:
    return write_atomic(
        Path(root) / TIMELINE_MANIFEST_NAME,
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def dump_into_timeline(
    root: "str | Path",
    date: int,
    cube: SegregationCube,
    parent_date: "int | None" = None,
    parent: "SegregationCube | None" = None,
    compact: bool = False,
) -> Path:
    """Write one dated snapshot into a timeline directory.

    The entry is a *delta* against ``parent_date``'s snapshot or a full
    snapshot, as the publish rule in the module docstring decides (full
    whenever ``parent_date`` is None).  Pass ``parent`` when the parent
    cube is already open to skip re-reading it.  Every publish records
    the date's chain length and own bytes plus the timeline's
    ``last_publish_at`` in ``timeline.json``.  ``compact`` is accepted
    for older callers and has no effect: every publish applies the
    same rule.
    """
    root = Path(root)
    directory = root / str(int(date))
    chain_length = 0
    if parent_date is not None:
        parent_dir = root / str(int(parent_date))
        parent_chain = delta_chain(parent_dir)
        if len(parent_chain) <= MAX_CHAIN:
            plan = plan_delta(
                cube, directory, parent_dir, parent, parent_chain[-1]
            )
            if plan.nbytes < MIN_BYTE_RATIO * snapshot_disk_bytes(
                parent_chain[-1]
            ):
                chain_length = len(parent_chain)
    if chain_length == 0:
        plan = plan_snapshot(cube)
    write_directory(directory, plan)
    manifest = read_timeline_manifest(root)
    manifest["dates"][str(int(date))] = {
        "chain_length": chain_length,
        "own_bytes": plan.nbytes,
    }
    manifest["last_publish_at"] = datetime.now(timezone.utc).isoformat()
    write_timeline_manifest(root, manifest)
    return directory


class CubeTimeline:
    """Read-only access to a dated sequence of cube snapshots.

    The timeline holds one resolved cube: the last one :meth:`at`
    returned or :meth:`adopt` was given.  ``at(date)`` returns it again
    for its own date; for another date it composes onto it when the
    date's delta chain runs through it, and opens the chain from disk
    otherwise, then holds the new date's cube alone.  Iterating is
    ``at()`` per date in date order, except that the cube held when the
    walk starts is yielded again for its own date, so a walk over N
    dates composes each date at most once onto the one before it (O(N)
    hops) and never holds more than one delta chain.  Opening is
    serialized by a lock, so concurrent walks and ``at()`` calls are
    safe; one may make another re-open a chain (at most ``MAX_CHAIN``
    hops), which never changes a result.
    """

    def __init__(self, root: "str | Path", mmap: bool = True):
        self._root = Path(root)
        self._mmap = mmap
        self._dates = timeline_dates(self._root)
        if not self._dates:
            raise SnapshotError(
                f"no dated snapshots under timeline directory {self._root}"
            )
        #: ``(date, resolved directory, cube)`` of the one held cube.
        self._held: "tuple[int, Path, SegregationCube] | None" = None
        self._lock = threading.Lock()

    @property
    def root(self) -> Path:
        return self._root

    @property
    def dates(self) -> "list[int]":
        """All snapshot dates, ascending."""
        return list(self._dates)

    def __len__(self) -> int:
        return len(self._dates)

    def __contains__(self, date: int) -> bool:
        return date in set(self._dates)

    def path_of(self, date: int) -> Path:
        """Directory of one date's snapshot."""
        if date not in self:
            raise SnapshotError(
                f"timeline {self._root} has no snapshot for date {date}; "
                f"available dates: {self._dates}"
            )
        return self._root / str(int(date))

    def manifest(self) -> dict:
        """The timeline's freshness and chain-stats manifest (advisory)."""
        return read_timeline_manifest(self._root)

    def at(self, date: int) -> SegregationCube:
        """The cube at one date, which the timeline then holds."""
        path = self.path_of(date)
        with self._lock:
            held = self._held
            if held is not None and held[0] == date:
                return held[2]
            cube = open_snapshot(
                path, mmap=self._mmap,
                onto=None if held is None else held[1:],
            )
            self._held = (date, path.resolve(), cube)
            return cube

    def adopt(self, date: int, cube: SegregationCube) -> None:
        """Hold the already-opened ``cube`` as this timeline's ``date``.

        ``at(date)`` then returns it, and a later date whose delta chain
        runs through ``date`` composes onto it instead of re-reading
        ``date``'s chain from disk.  The caller vouches that ``cube``
        holds ``date``'s content; a delta child still verifies its
        content digest over the composed table, so a wrong cube fails
        the child's open as a wrong ``open_snapshot(onto=)`` cube does.
        """
        path = self.path_of(date).resolve()
        with self._lock:
            self._held = (date, path, cube)

    def __iter__(self):
        """Yield ``(date, cube)`` pairs in date order, one ``at()`` each.

        The cube held when the walk starts is yielded again for its own
        date, and held again, instead of being composed a second time:
        a serving timeline holds its served cube, so a walk ends on it.
        """
        start = self._held
        for date in self._dates:
            if start is not None and start[0] == date:
                with self._lock:
                    self._held = start
                yield date, start[2]
            else:
                yield date, self.at(date)

    def __repr__(self) -> str:
        first, last = self._dates[0], self._dates[-1]
        return (
            f"CubeTimeline({self._root}, {len(self._dates)} dates "
            f"[{first}..{last}])"
        )


def timeline_changes(
    timeline: CubeTimeline,
) -> "list[tuple[int, ItemDictionary | None, CellTable]]":
    """Every date's cells, kept as what changed since the date before.

    One walk over ``timeline``.  Entry ``(date, dictionary, cells)``:
    at the first date, at a date whose cells cannot be compared with
    the date before's (another vocabulary, index-column layout or key
    width), and at a date whose changes take as many rows as its table,
    ``dictionary`` is the date's vocabulary and ``cells`` its whole
    table; at any other date ``dictionary`` is None and ``cells`` is
    :func:`~repro.store.snapshot.changed_cells` of the two dates.  A
    key's cell at a date is therefore its row in the last entry up to
    that date whose ``cells`` holds it, counting from the last entry
    with a vocabulary.  The entries hold what the timeline's deltas
    hold, and never more rows than one table per date.
    """
    entries = []
    previous = None
    for date, cube in timeline:
        cells = None if previous is None else changed_cells(cube, previous)
        if cells is None or len(cells) >= len(cube):
            entries.append((date, cube.dictionary, cube.table))
        else:
            entries.append((date, None, cells))
        previous = cube
    return entries
