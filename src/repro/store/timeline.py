"""CubeTimeline: a dated directory of cube snapshots, deltas included.

A timeline is a directory whose integer-named children are snapshot
directories, one per snapshot date::

    timeline/
      timeline.json   freshness + compaction manifest (advisory)
      1998/   full snapshot (the timeline root)
      2003/   delta, parent ../1998
      2008/   delta, parent ../2003
      ...

Each child is an ordinary :mod:`repro.store` snapshot — full or delta —
so every date reopens through :func:`~repro.store.snapshot.open_snapshot`
with the usual validation, and the whole tree relocates as one unit
(delta parents are relative paths).  :class:`CubeTimeline` lists the
dates, opens cubes lazily (caching them), and is what the serving layer
(``CubeService(..., date=...)``), the timeline comparison
(:func:`repro.cube.compare.timeline_series`) and the cube-backed trend
(:func:`repro.core.trend.segregation_trend`) consume.

:func:`dump_into_timeline` writes one dated entry: a full snapshot for
the first date, a delta against the previous date's entry afterwards —
the persistence half of the incremental temporal fill
(:mod:`repro.cube.incremental`).

**Compaction.**  Delta chains grow one hop per published date, so the
chain-resolution cost of opening the newest date grows linearly with
timeline length.  ``timeline.json`` tracks the *measured* per-date
chain length, own byte size and resolved-open wall time (plus the last
publish timestamp, the serving tier's staleness metric); a
:class:`CompactionPolicy` turns those measurements into a re-rooting
decision, and :func:`compact_date` rewrites one date as a fresh full
snapshot **crash-safely**:

1. the resolved cube is dumped into ``<date>.compacting`` (manifest
   written last, as for any snapshot);
2. the new root is reopened and its ``content_digest`` compared against
   the old chain's recorded digest — any mismatch aborts with the old
   chain untouched;
3. only then is the old directory renamed to ``<date>.pre-compact``,
   the new root renamed into place, and the old chain deleted.

A crash between the two renames leaves ``<date>`` missing and
``<date>.pre-compact`` intact; the next :func:`compact_date` restores
it before doing anything else.  Scratch directories never shadow a
date: :func:`timeline_dates` only accepts integer-named children, so
readers cannot observe a half-written root.  Children deltas stay valid
across a parent's compaction because the re-rooted snapshot is
digest-identical to the chain it replaces — superseded-key lookups and
the children's own content digests resolve exactly as before.

Compaction assumes a single writer (the publisher); concurrent readers
of *other* dates are unaffected, but a reader opening a child delta in
the instant between the two renames can observe a missing parent and
should retry.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.cube.cube import SegregationCube
from repro.errors import SnapshotError
from repro.store.manifest import MANIFEST_NAME, SnapshotManifest, write_atomic
from repro.store.snapshot import (
    delta_chain_length,
    dump_delta_snapshot,
    dump_snapshot,
    open_snapshot,
    snapshot_disk_bytes,
)

#: The timeline-level manifest file (freshness + per-date chain stats).
TIMELINE_MANIFEST_NAME = "timeline.json"
TIMELINE_FORMAT_VERSION = 1


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

    The manifest is advisory — a timeline without one (pre-compaction
    trees, hand-built fixtures) reads as an empty record — but a
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
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(
            f"unreadable timeline manifest {path}: {exc}"
        ) from exc
    if not isinstance(payload, dict) or not isinstance(
        payload.get("dates", {}), dict
    ):
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


def measure_open_ms(path: "str | Path", mmap: bool = True) -> float:
    """Wall-clock milliseconds of a fresh, cache-free chain-resolved open."""
    start = time.perf_counter()
    open_snapshot(path, mmap=mmap)
    return (time.perf_counter() - start) * 1e3


def _chain_root(path: Path) -> Path:
    """Directory of the full snapshot a delta chain bottoms out on."""
    directory = Path(path).resolve()
    seen = {directory}
    manifest = SnapshotManifest.read(directory)
    while manifest.delta is not None:
        directory = (directory / str(manifest.delta["parent"])).resolve()
        if directory in seen:
            loop = " -> ".join(str(p) for p in sorted(seen))
            raise SnapshotError(f"cyclic snapshot parent chain: {loop}")
        seen.add(directory)
        manifest = SnapshotManifest.read(directory)
    return directory


def record_date_stats(
    root: "str | Path", date: int, measure_open: bool = True
) -> dict:
    """Measure one date's chain stats and persist them in ``timeline.json``."""
    root = Path(root)
    directory = root / str(int(date))
    entry = {
        "chain_length": delta_chain_length(directory),
        "own_bytes": snapshot_disk_bytes(directory),
        "open_ms": (
            round(measure_open_ms(directory), 3) if measure_open else None
        ),
    }
    manifest = read_timeline_manifest(root)
    manifest["dates"][str(int(date))] = entry
    write_timeline_manifest(root, manifest)
    return entry


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompactionPolicy:
    """When does a delta date get re-rooted onto a full snapshot?

    All three triggers are measured, not guessed: a date compacts when
    its parent chain exceeds ``max_chain`` hops, when a fresh
    chain-resolved open exceeds ``max_open_ms``, or when its own delta
    bytes reach ``min_byte_ratio`` of the chain root's full-snapshot
    bytes (the delta is barely saving anything, so the chain hop is
    pure cost).  A full root (chain length 0) never re-compacts.
    """

    max_chain: int = 8
    max_open_ms: float = 250.0
    min_byte_ratio: float = 0.5

    def should_compact(
        self,
        chain_length: int,
        open_ms: "float | None" = None,
        own_bytes: "int | None" = None,
        root_bytes: "int | None" = None,
    ) -> bool:
        if chain_length <= 0:
            return False
        if chain_length > self.max_chain:
            return True
        if open_ms is not None and open_ms > self.max_open_ms:
            return True
        if own_bytes is not None and root_bytes:
            if own_bytes / root_bytes >= self.min_byte_ratio:
                return True
        return False


def compact_date(
    root: "str | Path",
    date: int,
    policy: "CompactionPolicy | None" = None,
    force: bool = False,
    measure_open: bool = True,
) -> bool:
    """Re-root one date onto a fresh full snapshot when the policy says so.

    Crash-safe (see the module docstring): the old chain stays intact —
    and stays the live snapshot — until the replacement root has been
    written, reopened and digest-verified.  Returns True when the date
    was compacted.  The measured stats land in ``timeline.json`` either
    way, so every call keeps the manifest fresh.
    """
    root = Path(root)
    d = int(date)
    directory = root / str(d)
    pre = root / f"{d}.pre-compact"
    scratch = root / f"{d}.compacting"
    # Crash recovery: a previous run renamed the old chain away but died
    # before the new root landed — restore the chain, then clean up any
    # scratch leftovers (they are unreferenced by construction).
    if not directory.exists() and pre.exists():
        pre.rename(directory)
    if scratch.exists():
        shutil.rmtree(scratch)
    if pre.exists():
        shutil.rmtree(pre)

    chain = delta_chain_length(directory)
    own_bytes = snapshot_disk_bytes(directory)
    open_ms = measure_open_ms(directory) if measure_open else None
    compacting = False
    if chain > 0:
        if force:
            compacting = True
        else:
            policy = policy or CompactionPolicy()
            compacting = policy.should_compact(
                chain,
                open_ms=open_ms,
                own_bytes=own_bytes,
                root_bytes=snapshot_disk_bytes(_chain_root(directory)),
            )
    if compacting:
        expected = SnapshotManifest.read(directory).content_digest
        resolved = open_snapshot(directory, mmap=True)
        # The open-time provenance describes the *old* chain; the fresh
        # root gets its own on reopen.
        resolved.metadata.extra.pop("snapshot", None)
        dump_snapshot(resolved, scratch)
        fresh = SnapshotManifest.read(scratch)
        if expected is not None and fresh.content_digest != expected:
            shutil.rmtree(scratch)
            raise SnapshotError(
                f"compaction of {directory} produced content digest "
                f"{fresh.content_digest}, expected {expected}; "
                "old chain left intact"
            )
        # Full reopen (arrays validated, digest re-verified) before the
        # old chain is touched at all.
        open_snapshot(scratch, mmap=False)
        directory.rename(pre)
        scratch.rename(directory)
        shutil.rmtree(pre)
        chain = 0
        own_bytes = snapshot_disk_bytes(directory)
        open_ms = measure_open_ms(directory) if measure_open else None

    manifest = read_timeline_manifest(root)
    manifest["dates"][str(d)] = {
        "chain_length": chain,
        "own_bytes": own_bytes,
        "open_ms": None if open_ms is None else round(open_ms, 3),
    }
    write_timeline_manifest(root, manifest)
    return compacting


def compact_timeline(
    root: "str | Path",
    policy: "CompactionPolicy | None" = None,
    dates: "list[int] | None" = None,
    force: bool = False,
    measure_open: bool = True,
) -> "list[int]":
    """Apply the compaction policy across a timeline's dates.

    Dates are visited in ascending order so that compacting an early
    date shortens every descendant's chain *before* its own decision is
    measured.  Returns the dates that were compacted.
    """
    root = Path(root)
    todo = sorted(
        int(d) for d in (dates if dates is not None else timeline_dates(root))
    )
    compacted = []
    for date in todo:
        if compact_date(
            root, date, policy=policy, force=force,
            measure_open=measure_open,
        ):
            compacted.append(date)
    return compacted


def dump_into_timeline(
    root: "str | Path",
    date: int,
    cube: SegregationCube,
    parent_date: "int | None" = None,
    parent: "SegregationCube | None" = None,
    compact: "CompactionPolicy | bool | None" = None,
) -> Path:
    """Write one dated snapshot into a timeline directory.

    With ``parent_date`` the entry is a *delta* against that date's
    snapshot (pass ``parent`` when that cube is already open to skip
    re-reading it); without, a full snapshot.  ``compact=`` runs the
    compaction policy on the new date right after the dump (``True``
    for the default :class:`CompactionPolicy`); every publish also
    refreshes the date's chain stats and the timeline's
    ``last_publish_at`` in ``timeline.json``.
    """
    directory = Path(root) / str(int(date))
    if parent_date is None:
        result = dump_snapshot(cube, directory)
    else:
        parent_dir = Path(root) / str(int(parent_date))
        result = dump_delta_snapshot(
            cube, directory, parent_dir, parent=parent
        )
    policy: "CompactionPolicy | None" = None
    if compact is True:
        policy = CompactionPolicy()
    elif isinstance(compact, CompactionPolicy):
        policy = compact
    if policy is not None:
        # Records the (possibly post-compaction) stats itself.
        compact_date(Path(root), date, policy=policy)
    else:
        record_date_stats(Path(root), date, measure_open=False)
    manifest = read_timeline_manifest(root)
    manifest["last_publish_at"] = datetime.now(timezone.utc).isoformat()
    write_timeline_manifest(root, manifest)
    return result


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
        """The timeline's freshness/compaction manifest (advisory)."""
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

    def latest(self) -> SegregationCube:
        """The cube at the most recent date."""
        return self.at(self._dates[-1])

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
