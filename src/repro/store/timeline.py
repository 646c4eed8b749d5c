"""CubeTimeline: a dated directory of cube snapshots, deltas included.

A timeline is a directory whose integer-named children are snapshot
directories, one per snapshot date::

    timeline/
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
trend reads again and again without reopening a date, and
:func:`changes_after` extends such a record by the dates published
since.

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
only the new directory ``<root>/<date>/``; it replaces no file, and
never renames, rewrites or deletes a date already published.  The
date's directory is written through the file layer's dump protocol
(:func:`~repro.store.manifest.write_directory`): the data file and its
directory entry are fsynced before the manifest is written, so a crash
at any point, power loss included, leaves a manifest-less directory
(which :func:`timeline_dates` does not list) or a complete snapshot.
The timeline directory is fsynced last, so the new date's entry is
durable when the publish returns.  Because no date changes once a
child may reference it, a reader never finds a delta whose parent is
missing.  Publishing assumes a single writer.

What a timeline records of its dates is read from the dates
themselves (:func:`read_timeline_manifest`): each date's chain length
from its manifest's delta section, its own bytes from its two files,
and the last publish time from the newest manifest's ``created_at``.
A ``timeline.json`` that earlier versions wrote is never read,
rewritten or deleted.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.cube.cube import SegregationCube
from repro.cube.table import CellTable
from repro.errors import SnapshotError
from repro.itemsets.items import ItemDictionary
from repro.store.manifest import (
    MANIFEST_NAME,
    SnapshotManifest,
    fsync_directory,
    write_directory,
)
from repro.store.snapshot import (
    changed_cells,
    delta_chain,
    delta_chain_length,
    open_snapshot,
    plan_delta,
    plan_snapshot,
    snapshot_disk_bytes,
)

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
# What the dates record (freshness + measured chain stats)
# ----------------------------------------------------------------------

def read_timeline_manifest(root: "str | Path") -> dict:
    """Each date's chain length and own bytes, and the last publish time.

    ``{"last_publish_at": ..., "dates": {"<date>": {"chain_length": ...,
    "own_bytes": ...}}}``, derived from the date directories in one
    pass that reads each date's manifest once: a full snapshot's chain
    length is 0 and a delta's its parent's plus one; the own bytes are
    :func:`~repro.store.snapshot.snapshot_disk_bytes`; the last publish
    time is the newest ``created_at`` among the dates' manifests (None
    for a timeline without dates).
    """
    root = Path(root)
    chains: "dict[str, int]" = {}
    dates: "dict[str, dict[str, int]]" = {}
    last_publish_at = None
    for date in timeline_dates(root):
        directory = root / str(date)
        manifest = SnapshotManifest.read(directory)
        chain = 0
        if manifest.delta is not None:
            parent = os.path.normpath(directory / manifest.delta["parent"])
            chain = 1 + (
                chains[parent] if parent in chains
                else delta_chain_length(parent)
            )
        chains[os.path.normpath(directory)] = chain
        dates[str(date)] = {
            "chain_length": chain,
            "own_bytes": snapshot_disk_bytes(directory),
        }
        if last_publish_at is None or manifest.created_at > last_publish_at:
            last_publish_at = manifest.created_at
    return {"last_publish_at": last_publish_at, "dates": dates}


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
    cube is already open to skip re-reading it.  The publish writes the
    new date's directory and nothing else, then fsyncs ``root`` so the
    date stays published across a power loss.  ``compact`` is accepted
    for older callers and has no effect: every publish applies the
    same rule.
    """
    root = Path(root)
    directory = root / str(int(date))
    plan = None
    if parent_date is not None:
        parent_dir = root / str(int(parent_date))
        parent_chain = delta_chain(parent_dir)
        if len(parent_chain) <= MAX_CHAIN:
            plan = plan_delta(
                cube, directory, parent_dir, parent, parent_chain[-1]
            )
            if plan.nbytes >= MIN_BYTE_RATIO * snapshot_disk_bytes(
                parent_chain[-1]
            ):
                plan = None
    if plan is None:
        plan = plan_snapshot(cube)
    write_directory(directory, plan)
    fsync_directory(root)
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


def _change_entries(walk, previous: "SegregationCube | None") -> list:
    """Each ``(date, cube)`` of ``walk`` as :func:`timeline_changes`
    records it, ``previous`` being the cube of the date before the
    first (None: the first is held whole)."""
    entries = []
    for date, cube in walk:
        cells = None if previous is None else changed_cells(cube, previous)
        if cells is None or len(cells) >= len(cube):
            entries.append((date, cube.dictionary, cube.table))
        else:
            entries.append((date, None, cells))
        previous = cube
    return entries


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
    return _change_entries(timeline, None)


def changes_after(
    timeline: CubeTimeline, date: int
) -> "list[tuple[int, ItemDictionary | None, CellTable]]":
    """:func:`timeline_changes`' entries of the dates after ``date``.

    Each later date is one hop onto the date before it, starting from
    ``date``'s cube as the timeline holds it (a serving refresh has
    adopted its served cube), and the timeline ends holding the last
    date's cube.  Appended to the entries of the dates up to ``date``,
    they are ``timeline_changes(timeline)``.
    """
    return _change_entries(
        ((later, timeline.at(later))
         for later in timeline.dates if later > date),
        timeline.at(date),
    )
