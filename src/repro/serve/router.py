"""ShardedCubeService: one logical cube served from many shards.

The router opens a directory written by
:func:`repro.store.shards.dump_sharded_snapshot` /
:func:`~repro.store.shards.dump_sharded_into_timeline` /
:func:`~repro.store.shards.shard_timeline_by_date` — a ``shards.json``
manifest plus one snapshot (or timeline) per shard — and presents the
:class:`~repro.serve.service.CubeService` query vocabulary over the
union, with the same answers the unsharded service would give:

* **Point queries** (``cell``/``value``) route to exactly one owning
  shard, re-deriving the shard key with the *same* partition functions
  the writer used (:func:`~repro.store.shards.hash_shard_of_key`,
  :func:`~repro.store.shards.attribute_shard_of_key`), so writer and
  router always agree.
* **Scans** (``top``/``slice``/``children``/``parents``) fan out to
  every shard and merge.  ``top`` is a k-way merge: because the shards
  partition the cells *disjointly*, every member of the global top-k
  is in its own shard's top-k, so merging the per-shard top-k lists by
  the cube's exact ordering — descending value, ties broken on the
  cell description — and cutting at k reproduces the unsharded ranking
  bit for bit.  Cell lists come back in canonical ``(depth,
  description)`` order.
* **Pivots** reuse :mod:`repro.report.pivot` with the router itself as
  the cube — the pivot needs only ``dictionary`` and ``value``, and
  each ``value`` routes to its owner — so sharded pivots equal
  unsharded ones by construction.
* **Trends** fan across dates: in ``date`` mode each shard *is* one
  date; in ``hash``/``attribute`` mode each shard is a timeline and
  the per-date values coalesce (a cell lives in exactly one shard, so
  at most one shard answers non-nan per date).

Every shard carries the full item vocabulary, so coordinate encoding
and ``describe`` work identically through any of them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from repro.cube.cell import CellStats
from repro.cube.coordinates import CellKey, encode_query
from repro.cube.explorer import Discovery
from repro.errors import SnapshotError
from repro.serve.service import Coordinates, CubeService
from repro.store.shards import (
    ShardsManifest,
    attribute_shard_of_key,
    hash_shard_of_key,
    is_sharded,
)
from repro.store.timeline import timeline_dates


def open_service(
    source,
    mmap: bool = True,
    date: "int | None" = None,
) -> "CubeService | ShardedCubeService":
    """Open whatever serving source a path holds.

    A directory with a ``shards.json`` manifest opens as a
    :class:`ShardedCubeService`; anything else (live cube, snapshot
    directory, timeline directory) opens as a plain
    :class:`~repro.serve.service.CubeService`.  This is the single
    entry point the CLI and the HTTP tier share.
    """
    if isinstance(source, (str, Path)) and is_sharded(source):
        return ShardedCubeService(source, mmap=mmap, date=date)
    return CubeService(source, mmap=mmap, date=date)


class ShardedCubeService:
    """Query router over the shards of one logical cube."""

    def __init__(
        self,
        root: "str | Path",
        mmap: bool = True,
        date: "int | None" = None,
    ):
        self._root = Path(root)
        self._mmap = bool(mmap)
        self._manifest = ShardsManifest.read(self._root)
        self._date: "int | None" = None
        if self._manifest.sharded_by == "date":
            # One shard per date: open every dated snapshot, serve one.
            self._services = {
                entry.key: CubeService(self._root / entry.path, mmap=mmap)
                for entry in self._manifest.entries
            }
            dates = sorted(entry.date for entry in self._manifest.entries)
            self._date = int(date) if date is not None else dates[-1]
            if self._date not in dates:
                raise SnapshotError(
                    f"no shard for date {self._date} under {self._root} "
                    f"(have: {dates})"
                )
        else:
            self._services = {
                entry.key: CubeService(
                    self._root / entry.path, mmap=mmap, date=date
                )
                for entry in self._manifest.entries
            }
            self._date = self._point_service().date

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _point_service(self) -> CubeService:
        """The shard answering single-date scans (any shard in hash/
        attribute mode would do for vocabulary access; date mode picks
        the served date's shard)."""
        if self._manifest.sharded_by == "date":
            return self._services[str(self._date)]
        return next(iter(self._services.values()))

    def _owner_of(self, key: CellKey) -> "CubeService | None":
        """The one shard that owns a cell key (None: provably absent)."""
        sharded_by = self._manifest.sharded_by
        if sharded_by == "date":
            return self._services[str(self._date)]
        if sharded_by == "hash":
            shard_key = hash_shard_of_key(
                key[0], key[1], self._manifest.n_words,
                self._manifest.n_shards,
            )
        else:
            attribute = sharded_by.partition(":")[2]
            shard_key = attribute_shard_of_key(
                key[1], self.dictionary, attribute
            )
        # An attribute value never seen at write time has no shard:
        # the cell cannot be materialised anywhere.
        return self._services.get(shard_key)

    def _scan_services(self) -> "list[CubeService]":
        """Shards that participate in a single-date fan-out scan."""
        if self._manifest.sharded_by == "date":
            return [self._services[str(self._date)]]
        return list(self._services.values())

    # ------------------------------------------------------------------
    # Vocabulary / identity (any shard: all carry the full dictionary)
    # ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @property
    def sharded_by(self) -> str:
        return self._manifest.sharded_by

    @property
    def n_shards(self) -> int:
        return self._manifest.n_shards

    @property
    def shard_keys(self) -> "list[str]":
        return [entry.key for entry in self._manifest.entries]

    @property
    def dictionary(self):
        return self._point_service().dictionary

    @property
    def index_names(self) -> "list[str]":
        return self._point_service().index_names

    @property
    def date(self) -> "int | None":
        return self._date

    def describe(self, key: CellKey) -> str:
        return self._point_service().describe(key)

    def dates(self) -> "list[int]":
        if self._manifest.sharded_by == "date":
            return sorted(entry.date for entry in self._manifest.entries)
        return self._point_service().dates()

    def refreshed(self) -> "ShardedCubeService | None":
        """A fresh router when new data was published, else None.

        ``date`` mode re-reads ``shards.json`` (publishing a date adds
        an entry); timeline-sharded modes list the point shard's
        timeline dates.  Either way only the successor router opens
        snapshots.  Like
        :meth:`~repro.serve.service.CubeService.refreshed`, the
        existing instance is never mutated.
        """
        if self._manifest.sharded_by == "date":
            fresh_manifest = ShardsManifest.read(self._root)
            dates = sorted(e.date for e in fresh_manifest.entries)
        else:
            timeline_root = self._point_service().timeline_root
            if timeline_root is None:
                return None
            dates = timeline_dates(timeline_root)
        if not dates or dates[-1] == self._date:
            return None
        return ShardedCubeService(self._root, mmap=self._mmap)

    # ------------------------------------------------------------------
    # Queries (the CubeService vocabulary, merged across shards)
    # ------------------------------------------------------------------

    def info(self) -> "dict[str, object]":
        """Aggregate headline numbers plus a per-shard breakdown."""
        infos = {key: svc.info() for key, svc in self._services.items()}
        first = next(iter(infos.values()))
        per_index = {
            name: sum(
                i["defined_cells_per_index"][name] for i in infos.values()
            )
            for name in first["defined_cells_per_index"]
        }
        out: "dict[str, object]" = {
            "sharded_by": self._manifest.sharded_by,
            "n_shards": self._manifest.n_shards,
            "cells": sum(i["cells"] for i in infos.values()),
            "context_only_cells": sum(
                i["context_only_cells"] for i in infos.values()
            ),
            "defined_cells_per_index": per_index,
            "mode": first["mode"],
            "min_population": first["min_population"],
            "min_minority": first["min_minority"],
            "build_seconds": first["build_seconds"],
            "backend": first["backend"],
            "index_names": first["index_names"],
            "n_rows": first["n_rows"],
            "n_units": first["n_units"],
            "shards": {
                key: {
                    k: v
                    for k, v in info.items()
                    if k in ("cells", "disk", "timeline")
                }
                for key, info in infos.items()
            },
        }
        dates = self.dates()
        if dates:
            out["timeline"] = {"dates": dates, "served_date": self._date}
        return out

    def top(
        self,
        index_name: str = "D",
        k: int = 10,
        min_minority: int = 0,
        min_population: int = 0,
        min_units: int = 2,
    ) -> "list[Discovery]":
        """Global top-k as a k-way merge of per-shard top-k lists."""
        merged: "list[Discovery]" = []
        for service in self._scan_services():
            merged.extend(service.top(
                index_name=index_name,
                k=k,
                min_minority=min_minority,
                min_population=min_population,
                min_units=min_units,
            ))
        # The cube's exact ordering: descending value, ties broken on
        # the description — then re-rank the global cut.
        merged.sort(key=lambda d: (-d.value, d.description))
        return [
            replace(found, rank=rank + 1)
            for rank, found in enumerate(merged[:k])
        ]

    def cell(self, sa: Coordinates = None, ca: Coordinates = None
             ) -> "CellStats | None":
        key = encode_query(self.dictionary, sa=sa, ca=ca)
        owner = self._owner_of(key)
        return owner.cell(sa=sa, ca=ca) if owner is not None else None

    def value(self, index_name: str, sa: Coordinates = None,
              ca: Coordinates = None) -> float:
        key = encode_query(self.dictionary, sa=sa, ca=ca)
        owner = self._owner_of(key)
        if owner is None:
            return float("nan")
        return owner.value(index_name, sa=sa, ca=ca)

    def value_by_key(self, index_name: str, key: CellKey) -> float:
        owner = self._owner_of(key)
        if owner is None:
            return float("nan")
        return owner.value_by_key(index_name, key)

    def _merged_cells(self, query) -> "list[CellStats]":
        merged: "list[CellStats]" = []
        for service in self._scan_services():
            merged.extend(query(service))
        merged.sort(key=lambda s: (s.depth(), self.describe(s.key)))
        return merged

    def slice(self, sa: Coordinates = None, ca: Coordinates = None
              ) -> "list[CellStats]":
        return self._merged_cells(lambda svc: svc.slice(sa=sa, ca=ca))

    def children(self, sa: Coordinates = None, ca: Coordinates = None
                 ) -> "list[CellStats]":
        # A child adds one item, which can move it to any shard (hash
        # changes; an added attribute value changes the shard value) —
        # so children always fan out, never prune.
        return self._merged_cells(lambda svc: svc.children(sa=sa, ca=ca))

    def parents(self, sa: Coordinates = None, ca: Coordinates = None
                ) -> "list[CellStats]":
        return self._merged_cells(lambda svc: svc.parents(sa=sa, ca=ca))

    def trend(
        self,
        index_name: str = "D",
        sa: Coordinates = None,
        ca: Coordinates = None,
    ) -> "list[tuple[int, float]]":
        if self._manifest.sharded_by == "date":
            return [
                (int(entry.date),
                 self._services[entry.key].value(index_name, sa=sa, ca=ca))
                for entry in sorted(
                    self._manifest.entries, key=lambda e: e.date
                )
            ]
        # Timeline-backed shards: coalesce per date.  The partition is
        # disjoint, so at most one shard answers non-nan per date.
        merged: "dict[int, float]" = {}
        for service in self._services.values():
            for date, value in service.trend(
                index_name=index_name, sa=sa, ca=ca
            ):
                current = merged.get(int(date))
                if current is None or (
                    math.isnan(current) and not math.isnan(value)
                ):
                    merged[int(date)] = value
        return sorted(merged.items())

    def pivot(
        self,
        index_name: str,
        row_attr: str,
        col_attr: str,
        fixed_sa: Coordinates = None,
        fixed_ca: Coordinates = None,
        digits: int = 2,
    ) -> str:
        from repro.report.pivot import pivot

        # The pivot reads only `dictionary` and `value`, both of which
        # this router provides with owner-shard routing.
        return pivot(
            self,
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
        from repro.report.pivot import pivot_values

        return pivot_values(
            self,
            index_name,
            row_attr,
            col_attr,
            fixed_sa=fixed_sa,
            fixed_ca=fixed_ca,
        )

    def __repr__(self) -> str:
        return (
            f"ShardedCubeService({str(self._root)!r}, "
            f"by={self._manifest.sharded_by!r}, "
            f"n_shards={self._manifest.n_shards})"
        )
