"""CubeService: the read-only serving facade over a cube or snapshot.

One service instance wraps a live
:class:`~repro.cube.cube.SegregationCube`, a snapshot directory
(opened via :func:`repro.store.open_snapshot`, memory-mapped by
default) or a **timeline** directory of dated snapshots — a path
without a top-level manifest is treated as a
:class:`~repro.store.timeline.CubeTimeline` (an opened one is accepted
as well) and the ``date`` argument
routes queries to one dated cube (latest by default); the other dates
stay one :meth:`trend` call away.  Construction *warms* the served
cube's derived lookup structures — decoded keys, size vectors, the
hash row index — so that afterwards every query path is a pure read
over immutable arrays and dicts: safe for any number of concurrent
reader threads, verified by the thread-pool test in
``tests/test_serve_service.py``.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.cube.cell import CellStats
from repro.cube.coordinates import CellKey, encode_query
from repro.cube.cube import SegregationCube
from repro.cube.explorer import Discovery, summarize_cube, top_contexts
from repro.errors import SnapshotError

if TYPE_CHECKING:
    from repro.store.timeline import CubeTimeline

Coordinates = Union[Mapping[str, object], None]


def _disk_info(path) -> "dict[str, int]":
    """On-disk footprint of one snapshot directory (own bytes + chain)."""
    from repro.store.snapshot import delta_chain_length, snapshot_disk_bytes

    return {
        "snapshot_bytes": snapshot_disk_bytes(path),
        "delta_chain_length": delta_chain_length(path),
    }


def _warm(cube: SegregationCube) -> SegregationCube:
    # Build all lazy derived state up front: once warmed, queries
    # never write to shared structures.  For live closed-mode cubes
    # that includes the resolver's transaction-database caches
    # (item covers, unit grouping), which are also built lazily.
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

    @property
    def timeline_root(self) -> "Path | None":
        """The timeline directory (None unless timeline-backed)."""
        return self._timeline.root if self._timeline is not None else None

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
        """
        if self._timeline is None:
            return None
        from repro.store.timeline import CubeTimeline

        timeline = CubeTimeline(self._timeline.root, mmap=self._mmap)
        if timeline.dates[-1] == self._date:
            return None
        timeline.adopt(self._date, self._cube)
        return CubeService(timeline, mmap=self._mmap)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def info(self) -> "dict[str, object]":
        """Headline numbers plus provenance of the served cube.

        Snapshot-backed services also report the snapshot's on-disk
        byte size and delta-chain length; timeline-backed ones report
        both *per date* — the two numbers the timeline's publish rule
        weighs (chain-resolution cost against byte savings), read from
        disk.
        """
        out = summarize_cube(self._cube)
        metadata = self._cube.metadata
        out["backend"] = metadata.backend
        out["index_names"] = list(metadata.index_names)
        out["n_rows"] = metadata.n_rows
        out["n_units"] = metadata.n_units
        snapshot = metadata.extra.get("snapshot")
        if snapshot is not None:
            out["snapshot"] = snapshot
            out["disk"] = _disk_info(snapshot["path"])
        if self._timeline is not None:
            out["timeline"] = {
                "dates": self._timeline.dates,
                "served_date": self._date,
                "per_date": {
                    str(date): _disk_info(self._timeline.path_of(date))
                    for date in self._timeline.dates
                },
            }
            out["staleness"] = self._staleness()
        return out

    def _staleness(self) -> "dict[str, object]":
        """How far behind, and how heavy, is what we are serving?

        ``latest_date``/``dates_behind`` compare the served date with
        the newest snapshot on disk; ``last_publish_at`` (plus the
        derived ``seconds_since_publish``) comes from the timeline
        manifest the publisher stamps on every
        :func:`~repro.store.timeline.dump_into_timeline`;
        ``chain_lengths`` is each date's delta-chain length as read
        from disk (at most ``MAX_CHAIN`` for dates the publisher wrote).
        """
        from datetime import datetime, timezone

        from repro.store.snapshot import delta_chain_length
        from repro.store.timeline import read_timeline_manifest

        dates = self._timeline.dates
        latest = dates[-1]
        manifest = read_timeline_manifest(self._timeline.root)
        last_publish_at = manifest.get("last_publish_at")
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
            "chain_lengths": {
                str(date): delta_chain_length(self._timeline.path_of(date))
                for date in dates
            },
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
        or the index undefined at that date).
        """
        if self._timeline is None:
            raise SnapshotError(
                "trend queries need a timeline directory of dated snapshots"
            )
        return [
            (date, cube.value(index_name, sa=sa, ca=ca))
            for date, cube in self._timeline
        ]

    def top(
        self,
        index_name: str = "D",
        k: int = 10,
        min_minority: int = 0,
        min_population: int = 0,
        min_units: int = 2,
    ) -> "list[Discovery]":
        """Ranked segregation contexts (the discovery primitive)."""
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
