"""CubeService: the read-only serving facade over a cube or snapshot.

One service instance wraps a live
:class:`~repro.cube.cube.SegregationCube`, a snapshot directory
(opened via :func:`repro.store.open_snapshot`, memory-mapped by
default) or a **timeline** directory of dated snapshots — a path
without a top-level manifest is treated as a
:class:`~repro.store.timeline.CubeTimeline` (an opened one is accepted
as well) and the ``date`` argument
routes queries to one dated cube (latest by default); the other dates
stay one :meth:`trend` call away.  The first trend walks the timeline
once, each date composed onto the one before it and then dropped, and
keeps what each date changed since the date before
(:func:`~repro.store.timeline.timeline_changes`), which is what the
timeline's deltas hold; every trend reads those changes, and a
refresh hands them on, extended by the dates it composes.  A service
therefore holds one cube, the served one, whatever the number of
dates, plus those changes, never more rows than one table per date.
Construction *warms* the served cube — its row index and size vectors,
no decoded key — and builds the typed-coordinate lookup
(:func:`~repro.serve.params.typed_values`).

The service keeps one empty *rendered* slot per row of the served
cube's table.  :meth:`CubeService.rendered` fills a row's slot the
first time a cell endpoint lists that row, with the row's ``(depth,
description, fragment)``, and every later request reuses it: a cell's
JSON never changes while its cube is served.  A slot is never
invalidated; it dies with the service, which a refresh replaces.

After construction a query writes only per-row slots: a row's key slot
(the one key the row decodes to) and its rendered slot (the one entry
the row renders to); the first trend also writes the timeline's
changes, once, under a lock.  Two threads racing on one slot write
equal values, so any number of concurrent reader threads is safe, as the
thread-pool tests in ``tests/test_serve_service.py`` and
``tests/test_serve_http.py`` check.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.cube.cell import CellStats
from repro.cube.coordinates import CellKey, encode_query
from repro.cube.cube import SegregationCube
from repro.cube.explorer import Discovery, summarize_cube, top_contexts
from repro.errors import SnapshotError
from repro.serve import payloads
from repro.serve.params import typed_values

if TYPE_CHECKING:
    from repro.store.timeline import CubeTimeline

Coordinates = Union[Mapping[str, object], None]
#: A rendered cell: ``(depth, description, fragment)``.
Rendered = tuple[int, str, bytes]


def _disk_info(path) -> "tuple[dict[str, int], str]":
    """On-disk footprint of one snapshot directory (own bytes + chain),
    and its manifest's ``created_at``: one walk of its delta chain."""
    from repro.store.snapshot import chain_manifests, snapshot_disk_bytes

    chain = chain_manifests(path)
    return {
        "snapshot_bytes": snapshot_disk_bytes(path),
        "delta_chain_length": len(chain) - 1,
    }, chain[0][1].created_at


def _warm(cube: SegregationCube) -> SegregationCube:
    # Build the shared lookup state up front: once warmed, queries
    # write only per-row key slots.  For live closed-mode cubes that
    # includes the resolver's transaction-database caches (item
    # covers, unit grouping), which are also built lazily.
    cube.table.warm()
    resolver_warm = getattr(getattr(cube, "_resolver", None), "warm", None)
    if callable(resolver_warm):
        resolver_warm()
    return cube


class CubeService:
    """Concurrent read-only query serving over an opened cube."""

    def __init__(
        self,
        source: "SegregationCube | CubeTimeline | str | Path",
        mmap: bool = True,
        date: "int | None" = None,
    ):
        from repro.store.manifest import MANIFEST_NAME
        from repro.store.snapshot import open_snapshot
        from repro.store.timeline import CubeTimeline

        self._timeline = None
        self._date: "int | None" = None
        self._mmap = bool(mmap)
        if isinstance(source, (str, Path)):
            path = Path(source)
            if (path / MANIFEST_NAME).is_file():
                if date is not None:
                    raise SnapshotError(
                        f"{path} is a single snapshot; date routing needs "
                        "a timeline directory of dated snapshots"
                    )
                source = open_snapshot(path, mmap=mmap)
            else:
                source = CubeTimeline(path, mmap=mmap)
        if isinstance(source, CubeTimeline):
            self._timeline = source
            self._date = int(date) if date is not None else source.dates[-1]
            source = source.at(self._date)
        elif date is not None:
            raise SnapshotError(
                "date routing needs a timeline directory, not a live "
                "cube"
            )
        self._cube = _warm(source)
        #: ``{attribute: {str(value): value}}``, what
        #: :func:`~repro.serve.params.typed_coordinates` coerces with.
        self.typed_values = typed_values(self._cube.dictionary)
        self._rendered: "list[Rendered | None]" = [None] * len(self._cube)
        #: What each timeline date changed, from the first trend's walk.
        self._changes: "list[tuple] | None" = None
        self._changes_lock = threading.Lock()

    @property
    def cube(self) -> SegregationCube:
        """The served cube (live or snapshot-backed)."""
        return self._cube

    @property
    def date(self) -> "int | None":
        """The served snapshot date (None unless timeline-backed)."""
        return self._date

    @property
    def dictionary(self):
        """The served cube's typed item vocabulary."""
        return self._cube.dictionary

    @property
    def index_names(self) -> "list[str]":
        """Short names of the served index columns."""
        return list(self._cube.metadata.index_names)

    def dates(self) -> "list[int]":
        """All timeline dates ([] when not timeline-backed)."""
        return self._timeline.dates if self._timeline is not None else []

    def refreshed(self) -> "CubeService | None":
        """A fresh service over the latest published date, or None.

        Timeline-backed services only: re-lists the timeline directory
        once and, when a newer date than the currently served one has
        been published, returns a *new* service over it (the existing
        instance keeps serving its date untouched — readers in flight
        never see state change under them).  Returns None when there is
        nothing newer; the cache layer uses this to decide whether a
        publish happened and stale entries must be evicted.

        The new date opens with the served cube already resolved
        (:meth:`~repro.store.timeline.CubeTimeline.adopt`): a delta on
        the served date composes one hop, a full (checkpoint) date none,
        and each date published but not yet served adds one hop.  The
        served date's own chain is not re-read from disk.  That is safe
        because the served cube was checked when it was opened, a
        published date is never rewritten, and the new date's content
        digest still verifies the whole composed table, so a served cube
        that disagreed with the disk would fail the open.  A failed open
        raises :class:`~repro.errors.SnapshotError` and leaves this
        service as it was.

        When this service's trend changes end at its date, the new
        service starts with a copy of them extended by each new date's
        changes (:func:`~repro.store.timeline.changes_after`: one hop
        per date onto the served cube), so its first trend walks
        nothing.
        """
        if self._timeline is None:
            return None
        from repro.store.timeline import CubeTimeline, changes_after

        timeline = CubeTimeline(self._timeline.root, mmap=self._mmap)
        if timeline.dates[-1] == self._date:
            return None
        timeline.adopt(self._date, self._cube)
        with self._changes_lock:
            changes = self._changes
        if changes is not None and [date for date, _, _ in changes] == [
            date for date in timeline.dates if date <= self._date
        ]:
            changes = changes + changes_after(timeline, self._date)
        else:
            changes = None
        successor = CubeService(timeline, mmap=self._mmap)
        successor._changes = changes
        return successor

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def info(self) -> "dict[str, object]":
        """Headline numbers plus provenance of the served cube.

        ``rendered_rows`` counts the rows whose rendered slot is filled:
        it grows toward ``cells`` as requests list rows.
        Snapshot-backed services also report the snapshot's on-disk
        byte size and delta-chain length; timeline-backed ones report
        both *per date* — the two numbers the timeline's publish rule
        weighs (chain-resolution cost against byte savings), read from
        disk.  Each snapshot directory's delta chain is walked once per
        call, and that walk fills every field reporting it, the
        staleness's ``last_publish_at`` included.
        """
        walks: "dict[Path, tuple[dict[str, int], str]]" = {}

        def walk(path) -> "tuple[dict[str, int], str]":
            directory = Path(path).resolve()
            if directory not in walks:
                walks[directory] = _disk_info(directory)
            return walks[directory]

        out = summarize_cube(self._cube)
        metadata = self._cube.metadata
        out["backend"] = metadata.backend
        out["index_names"] = list(metadata.index_names)
        out["n_rows"] = metadata.n_rows
        out["n_units"] = metadata.n_units
        out["rendered_rows"] = len(self._rendered) - self._rendered.count(None)
        snapshot = metadata.extra.get("snapshot")
        if snapshot is not None:
            out["snapshot"] = snapshot
            out["disk"] = walk(snapshot["path"])[0]
        if self._timeline is not None:
            walked = {
                str(date): walk(self._timeline.path_of(date))
                for date in self._timeline.dates
            }
            per_date = {date: disk for date, (disk, _) in walked.items()}
            out["timeline"] = {
                "dates": self._timeline.dates,
                "served_date": self._date,
                "per_date": per_date,
            }
            out["staleness"] = self._staleness(
                {
                    date: disk["delta_chain_length"]
                    for date, disk in per_date.items()
                },
                max(created_at for _, created_at in walked.values()),
            )
        return out

    def _staleness(
        self, chain_lengths: "dict[str, int]", last_publish_at: str
    ) -> "dict[str, object]":
        """How far behind, and how heavy, is what we are serving?

        ``latest_date``/``dates_behind`` compare the served date with
        the newest snapshot on disk; ``last_publish_at`` (plus the
        derived ``seconds_since_publish``) is the newest date
        manifest's ``created_at``, stamped by every
        :func:`~repro.store.timeline.dump_into_timeline`;
        ``chain_lengths`` is each date's delta-chain length as read
        from disk (at most ``MAX_CHAIN`` for dates the publisher wrote).
        :meth:`info`'s walk of each date's chain reads both.
        """
        from datetime import datetime, timezone

        dates = self._timeline.dates
        latest = dates[-1]
        seconds_since = None
        if last_publish_at:
            try:
                published = datetime.fromisoformat(last_publish_at)
                now = datetime.now(timezone.utc)
                if published.tzinfo is None:
                    published = published.replace(tzinfo=timezone.utc)
                seconds_since = max(
                    0.0, (now - published).total_seconds()
                )
            except ValueError:
                seconds_since = None
        return {
            "latest_date": latest,
            "served_date": self._date,
            "dates_behind": sum(1 for d in dates if d > self._date),
            "last_publish_at": last_publish_at,
            "seconds_since_publish": seconds_since,
            "chain_lengths": chain_lengths,
        }

    def trend(
        self,
        index_name: str = "D",
        sa: Coordinates = None,
        ca: Coordinates = None,
    ) -> "list[tuple[int, float]]":
        """One cell's index value at every timeline date.

        Timeline-backed services only: each date's cube answers the
        same user-level coordinate query (nan where the cell is absent
        or the index undefined at that date).  The service's first trend
        walks the timeline once
        (:func:`~repro.store.timeline.timeline_changes`: each date one
        hop onto the date before it) and keeps what each date changed,
        not the dates' cubes; every trend then reads a date's value as
        one lookup in that date's changes.
        """
        if self._timeline is None:
            raise SnapshotError(
                "trend queries need a timeline directory of dated snapshots"
            )
        from repro.store.timeline import timeline_changes

        with self._changes_lock:
            if self._changes is None:
                self._changes = timeline_changes(self._timeline)
        out: "list[tuple[int, float]]" = []
        key, value = None, math.nan
        for date, dictionary, cells in self._changes:
            if dictionary is not None:
                key, value = encode_query(dictionary, sa=sa, ca=ca), math.nan
            row = cells.row_of(key)
            if row is not None:
                value = cells.value_at(row, index_name)
            out.append((date, value))
        return out

    def top(
        self,
        index_name: str = "D",
        k: int = 10,
        min_minority: int = 0,
        min_population: int = 0,
        min_units: int = 2,
    ) -> "list[Discovery]":
        """Ranked segregation contexts (the discovery primitive)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return top_contexts(
            self._cube,
            index_name=index_name,
            k=k,
            min_minority=min_minority,
            min_population=min_population,
            min_units=min_units,
        )

    def cell(self, sa: Coordinates = None, ca: Coordinates = None
             ) -> "CellStats | None":
        """Point lookup by user-level coordinates."""
        return self._cube.cell(sa=sa, ca=ca)

    def value(self, index_name: str, sa: Coordinates = None,
              ca: Coordinates = None) -> float:
        """One index value at user-level coordinates (nan when absent)."""
        return self._cube.value(index_name, sa=sa, ca=ca)

    def value_by_key(self, index_name: str, key: CellKey) -> float:
        """One index value at an encoded cell key."""
        return self._cube.value_by_key(index_name, key)

    def slice(self, sa: Coordinates = None, ca: Coordinates = None
              ) -> "list[CellStats]":
        """All materialised cells refining the given coordinates."""
        return self._cube.slice(sa=sa, ca=ca)

    def children(self, sa: Coordinates = None, ca: Coordinates = None
                 ) -> "list[CellStats]":
        """Drill-down neighbours (one added coordinate)."""
        key = encode_query(self._cube.dictionary, sa=sa, ca=ca)
        return self._cube.children(key)

    def parents(self, sa: Coordinates = None, ca: Coordinates = None
                ) -> "list[CellStats]":
        """Roll-up neighbours (one removed coordinate)."""
        key = encode_query(self._cube.dictionary, sa=sa, ca=ca)
        return self._cube.parents(key)

    def describe(self, key: CellKey) -> str:
        """Human-readable address of a cell key."""
        return self._cube.describe(key)

    def rendered(self, hits: "list[int | CellStats]") -> "list[Rendered]":
        """Each hit's ``(depth, description, fragment)``.

        ``hits`` come from the served cube's row-level queries
        (:meth:`~repro.cube.cube.SegregationCube.locate` and the
        ``*_rows`` forms).  A row is rendered on first use and kept in
        its slot; a resolver-computed cell has no row, so it is rendered
        now and not kept.
        """
        slots = self._rendered
        out = []
        for hit in hits:
            if isinstance(hit, int):
                entry = slots[hit]
                if entry is None:
                    entry = slots[hit] = self._render(
                        self._cube.table.stats(hit)
                    )
            else:
                entry = self._render(hit)
            out.append(entry)
        return out

    def _render(self, stats: CellStats) -> Rendered:
        description = self._cube.describe(stats.key)
        return stats.depth(), description, payloads.cell_fragment(
            description, stats, self.index_names
        )

    def pivot(
        self,
        index_name: str,
        row_attr: str,
        col_attr: str,
        fixed_sa: Coordinates = None,
        fixed_ca: Coordinates = None,
        digits: int = 2,
    ) -> str:
        """Fig. 1-style text pivot of one index over two attributes."""
        from repro.report.pivot import pivot

        return pivot(
            self._cube,
            index_name,
            row_attr,
            col_attr,
            fixed_sa=fixed_sa,
            fixed_ca=fixed_ca,
            digits=digits,
        )

    def pivot_values(
        self,
        index_name: str,
        row_attr: str,
        col_attr: str,
        fixed_sa: Coordinates = None,
        fixed_ca: Coordinates = None,
    ) -> "tuple[list[str], list[str], list[list[float]]]":
        """The pivot's raw ``(row_labels, col_labels, matrix)`` data."""
        from repro.report.pivot import pivot_values

        return pivot_values(
            self._cube,
            index_name,
            row_attr,
            col_attr,
            fixed_sa=fixed_sa,
            fixed_ca=fixed_ca,
        )

    def __repr__(self) -> str:
        return f"CubeService({self._cube!r})"
