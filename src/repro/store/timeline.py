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
dates, opens cubes lazily (caching them), and is what the serving layer
(``CubeService(..., date=...)``), the timeline comparison
(:func:`repro.cube.compare.timeline_series`) and the cube-backed trend
(:func:`repro.core.trend.segregation_trend`) consume.

:func:`dump_into_timeline` writes one dated entry — the persistence
half of the incremental temporal fill (:mod:`repro.cube.incremental`).

**The publish rule.**  A delta chain grows one hop per published date,
and every hop adds a compose-and-verify step to opening the newest
date.  :func:`dump_into_timeline` therefore decides once, when it
writes a date, whether the date is a delta on its parent date or a
full snapshot:

* full when there is no parent date, or when the parent's chain is
  already :data:`MAX_CHAIN` hops long;
* otherwise a delta — unless the delta's own bytes reach
  :data:`MIN_BYTE_RATIO` of its chain root's bytes (it barely saves
  anything, so the hop is pure cost), in which case the same new
  directory is rewritten as a full snapshot.

No chain the publisher writes is longer than :data:`MAX_CHAIN`
(timelines written earlier with longer chains still open unchanged).
A publish writes only ``<root>/<date>/`` and ``timeline.json``; it
never renames, rewrites or deletes a date already published.  Both
writes of a date — the delta and the byte-triggered full rewrite, on a
directory no other date references yet — go through the file layer's
dump protocol (:func:`~repro.store.manifest.dump_directory`): the
manifest is unlinked first and written last, so a crash at any point
leaves a manifest-less directory (which :func:`timeline_dates` does not
list) or a complete snapshot.  Because
no date changes once a child may reference it, a reader never finds a
delta whose parent is missing.

``timeline.json`` records each date's chain length and own byte size,
plus the last publish timestamp (the serving tier's staleness metric).
A publish writes it once, after the date's own manifest.  Publishing
assumes a single writer.
"""

from __future__ import annotations

import json
import threading
from datetime import datetime, timezone
from pathlib import Path

from repro.cube.cube import SegregationCube
from repro.errors import SnapshotError
from repro.store.manifest import MANIFEST_NAME, read_json, write_atomic
from repro.store.snapshot import (
    delta_chain,
    dump_delta_snapshot,
    dump_snapshot,
    open_snapshot,
    snapshot_disk_bytes,
)

#: The timeline-level manifest file (freshness + per-date chain stats).
TIMELINE_MANIFEST_NAME = "timeline.json"
TIMELINE_FORMAT_VERSION = 1

#: A publish writes a full snapshot once its parent's chain is this
#: many hops long, so no chain the publisher writes is longer.
MAX_CHAIN = 8

#: A delta whose own bytes reach this fraction of its chain root's
#: bytes is rewritten as a full snapshot before the publish completes.
MIN_BYTE_RATIO = 0.5


def timeline_dates(root: "str | Path") -> "list[int]":
    """Sorted snapshot dates found under a timeline directory."""
    directory = Path(root)
    if not directory.is_dir():
        raise SnapshotError(f"timeline directory {directory} does not exist")
    dates = []
    for child in directory.iterdir():
        if not child.is_dir() or not (child / MANIFEST_NAME).is_file():
            continue
        try:
            dates.append(int(child.name))
        except ValueError:
            continue
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
            dump_delta_snapshot(cube, directory, parent_dir, parent=parent)
            own_bytes = snapshot_disk_bytes(directory)
            if own_bytes < MIN_BYTE_RATIO * snapshot_disk_bytes(
                parent_chain[-1]
            ):
                chain_length = len(parent_chain)
    if chain_length == 0:
        dump_snapshot(cube, directory)
        own_bytes = snapshot_disk_bytes(directory)
    manifest = read_timeline_manifest(root)
    manifest["dates"][str(int(date))] = {
        "chain_length": chain_length,
        "own_bytes": own_bytes,
    }
    manifest["last_publish_at"] = datetime.now(timezone.utc).isoformat()
    write_timeline_manifest(root, manifest)
    return directory


class CubeTimeline:
    """Read-only access to a dated sequence of cube snapshots.

    Cubes open lazily on first access and are cached — including every
    parent resolved along a delta chain, so walking an N-date timeline
    composes each snapshot once (O(N) total, not O(N²)).  Opening is
    serialized by a lock, making concurrent ``at()`` calls (e.g. the
    serving layer's ``trend``) safe; once a cube is cached, access is a
    pure read.
    """

    def __init__(self, root: "str | Path", mmap: bool = True):
        self._root = Path(root)
        self._mmap = mmap
        self._dates = timeline_dates(self._root)
        if not self._dates:
            raise SnapshotError(
                f"no dated snapshots under timeline directory {self._root}"
            )
        self._cubes: "dict[int, SegregationCube]" = {}
        #: Every snapshot resolved so far, keyed by resolved directory —
        #: shared with open_snapshot so delta chains reuse it.
        self._resolved: "dict[Path, SegregationCube]" = {}
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
        """The cube at one date (opened on first use, then cached)."""
        path = self.path_of(date)
        with self._lock:
            if date not in self._cubes:
                self._cubes[date] = open_snapshot(
                    path, mmap=self._mmap, parents=self._resolved
                )
            return self._cubes[date]

    def adopt(self, date: int, cube: SegregationCube) -> None:
        """Use the already-opened ``cube`` as this timeline's ``date``.

        ``at(date)`` then returns it, and a later date whose delta chain
        runs through ``date`` composes onto it instead of re-reading
        ``date``'s chain from disk.  The caller vouches that ``cube``
        holds ``date``'s content; a delta child still verifies its
        content digest over the composed table, so a wrong cube fails
        the child's open as a wrong ``open_snapshot(parents=)`` entry
        does.
        """
        path = self.path_of(date)
        with self._lock:
            self._cubes[date] = cube
            self._resolved[path.resolve()] = cube

    def __iter__(self):
        """Yield ``(date, cube)`` pairs in date order."""
        for date in self._dates:
            yield date, self.at(date)

    def __repr__(self) -> str:
        first, last = self._dates[0], self._dates[-1]
        return (
            f"CubeTimeline({self._root}, {len(self._dates)} dates "
            f"[{first}..{last}])"
        )
