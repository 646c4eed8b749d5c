"""Shard manifests: one logical cube fanned across many snapshots.

A *sharded* cube is a directory holding a ``shards.json`` manifest plus
one child directory per shard::

    sharded/
      shards.json       how the cells are partitioned, one entry/shard
      shard-0/          ordinary repro.store snapshot (or timeline)
      shard-1/
      ...

Each shard is a self-contained :mod:`repro.store` snapshot — or a
timeline of dated snapshots — over a *disjoint subset* of the logical
cube's cells, all sharing the full item vocabulary, so every shard
reopens through the usual validation and answers queries with the
usual code.  The partition function depends only on a cell's key, so a
point query routes to exactly one shard, while scans (``top``,
``slice``, ``children``) fan out and merge — that merging lives in
:class:`repro.serve.router.ShardedCubeService`; this module owns the
on-disk format and the writers.

Two partition schemes:

``hash``
    stable CRC-32 of the cell's packed key bitmask bytes modulo
    ``n_shards`` — balanced, works for any cube.
``attribute:<name>``
    cells grouped by the value of context attribute ``<name>`` in their
    key (``*`` for cells that leave it at the wildcard; multi-valued
    cells go to their lexicographically smallest value) — aligns shards
    with a natural query dimension.

A sharded *timeline* publishes each date into one shard timeline after
another (:func:`dump_sharded_into_timeline`), so while a publish runs,
or after one was cut short, some shards hold the new date and others
do not.  ``shards.json`` is written last, in one atomic write that
lists any new shard and records the ``published_date``, the newest date
every shard holds.  The router opens every shard at that date, so a
reader never mixes dates.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from repro.cube.cube import SegregationCube
from repro.cube.table import CellTable, TableArrays, pack_items
from repro.errors import SnapshotError
from repro.itemsets.items import ItemDictionary
from repro.store.manifest import MANIFEST_NAME, read_manifest, write_atomic
from repro.store.snapshot import dump_snapshot
from repro.store.timeline import dump_into_timeline

SHARDS_NAME = "shards.json"

SHARDS_FORMAT_VERSION = 1

#: Shard key of cells whose key leaves the shard attribute at ``⋆``.
WILDCARD_SHARD = "*"


@dataclass(frozen=True)
class ShardEntry:
    """One shard: where it lives and which cells it owns."""

    path: str                 # directory, relative to the manifest dir
    key: str                  # hash bucket or attribute value


@dataclass
class ShardsManifest:
    """Everything a router needs to open and route across the shards."""

    format_version: int
    sharded_by: str            # "hash" | "attribute:<name>"
    n_words: int               # packed key width shared by all shards
    entries: "list[ShardEntry]"
    #: Sharded timelines only: the newest date published on every
    #: shard (None for a sharded snapshot).
    published_date: "int | None" = None

    @property
    def n_shards(self) -> int:
        return len(self.entries)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def write(self, directory: "str | Path") -> Path:
        return write_atomic(Path(directory) / SHARDS_NAME, self.to_json())

    @classmethod
    def read(cls, directory: "str | Path") -> "ShardsManifest":
        payload = read_manifest(
            Path(directory) / SHARDS_NAME, "shards", SHARDS_FORMAT_VERSION,
            ("sharded_by", "n_words", "entries"),
        )
        try:
            sharded_by = str(payload["sharded_by"])
            n_words = int(payload["n_words"])
            published = payload.get("published_date")
            published_date = None if published is None else int(published)
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"shards manifest is malformed: {exc}"
            ) from exc
        if sharded_by != "hash" and not sharded_by.startswith("attribute:"):
            raise SnapshotError(
                f"unknown sharding scheme {sharded_by!r} (expected 'hash' "
                "or 'attribute:<name>')"
            )
        raw_entries = payload["entries"]
        if not isinstance(raw_entries, list) or not raw_entries:
            raise SnapshotError("shards manifest lists no shard entries")
        entries = []
        for raw in raw_entries:
            try:
                entries.append(ShardEntry(
                    path=str(raw["path"]), key=str(raw["key"])
                ))
            except (KeyError, TypeError) as exc:
                raise SnapshotError(
                    f"malformed shard entry {raw!r}"
                ) from exc
        keys = [entry.key for entry in entries]
        if len(set(keys)) != len(keys):
            raise SnapshotError(f"duplicate shard keys in manifest: {keys}")
        return cls(
            format_version=SHARDS_FORMAT_VERSION,
            sharded_by=sharded_by,
            n_words=n_words,
            entries=entries,
            published_date=published_date,
        )


def is_sharded(path: "str | Path") -> bool:
    """True when ``path`` holds a ``shards.json`` manifest."""
    return (Path(path) / SHARDS_NAME).is_file()


# ----------------------------------------------------------------------
# Partition functions (shared by the writers and the query router)
# ----------------------------------------------------------------------


def _key_bytes(sa_mask: np.ndarray, ca_mask: np.ndarray) -> bytes:
    """Endian-stable bytes of one cell's packed (SA, CA) key bitmasks."""
    combined = np.concatenate([np.asarray(sa_mask), np.asarray(ca_mask)])
    return np.ascontiguousarray(combined.astype("<u8")).tobytes()


def hash_shard_of_key(
    sa_items, ca_items, n_words: int, n_shards: int
) -> str:
    """Stable hash-bucket shard key of one cell key."""
    bucket = zlib.crc32(_key_bytes(
        pack_items(sa_items, n_words), pack_items(ca_items, n_words)
    )) % n_shards
    return str(bucket)


def attribute_shard_of_key(
    ca_items, dictionary: ItemDictionary, attribute: str
) -> str:
    """Attribute-value shard key of one cell key (``*`` when absent)."""
    values = sorted(
        str(dictionary.item(item_id).value)
        for item_id in ca_items
        if dictionary.item(item_id).attribute == attribute
    )
    return values[0] if values else WILDCARD_SHARD


def shard_keys_of_table(
    cube: SegregationCube, by: str, n_shards: int
) -> "list[str]":
    """Per-row shard key of every cell in a cube, in row order."""
    table = cube.table
    if by == "hash":
        sa_masks = np.asarray(table.sa_masks)
        ca_masks = np.asarray(table.ca_masks)
        return [
            str(zlib.crc32(_key_bytes(sa_masks[i], ca_masks[i])) % n_shards)
            for i in range(len(table))
        ]
    if by.startswith("attribute:"):
        attribute = by.partition(":")[2]
        ca_attrs = {
            cube.dictionary.item(i).attribute
            for i in cube.dictionary.ca_ids
        }
        if attribute not in ca_attrs:
            raise SnapshotError(
                f"cannot shard by {attribute!r}: not a context attribute "
                f"of this cube (have: {sorted(ca_attrs)})"
            )
        return [
            attribute_shard_of_key(key[1], cube.dictionary, attribute)
            for key in table.keys
        ]
    raise SnapshotError(
        f"unknown sharding scheme {by!r} (expected 'hash' or "
        "'attribute:<name>')"
    )


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------


def _subset_cube(cube: SegregationCube, rows: np.ndarray,
                 shard_info: "dict[str, object]") -> SegregationCube:
    """A cube over one shard's rows (columns copied, vocabulary shared)."""
    table = cube.table

    def take(array: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.asarray(array)[rows])

    arrays = TableArrays(
        population=take(table.population),
        minority=take(table.minority),
        n_units=take(table.n_units),
        sa_masks=take(table.sa_masks),
        ca_masks=take(table.ca_masks),
        columns={name: take(col) for name, col in table.columns.items()},
    )
    extra = {
        k: v for k, v in cube.metadata.extra.items() if k != "snapshot"
    }
    extra["shard"] = dict(shard_info)
    metadata = replace(cube.metadata, extra=extra)
    return SegregationCube(
        CellTable.from_arrays(arrays), cube.dictionary, metadata
    )


def _partition(cube: SegregationCube, by: str, n_shards: int
               ) -> "dict[str, np.ndarray]":
    """Shard key -> row indices, covering every row exactly once."""
    keys = shard_keys_of_table(cube, by, n_shards)
    groups: "dict[str, list[int]]" = {}
    if by == "hash":
        # Hash buckets exist even when empty, so the routing function
        # (crc32 % n_shards) always lands on a real shard directory.
        for bucket in range(n_shards):
            groups[str(bucket)] = []
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    return {
        key: np.asarray(rows, dtype=np.int64)
        for key, rows in groups.items()
    }


def _shard_dir_name(key: str) -> str:
    """Directory name of one shard (attribute values can hold ``/`` etc.)."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
    return f"shard-{safe}" if safe else "shard-_"


def dump_sharded_snapshot(
    cube: SegregationCube,
    root: "str | Path",
    by: str = "hash",
    n_shards: int = 4,
) -> Path:
    """Persist one cube as a sharded directory of snapshots.

    The cells are partitioned by ``by`` (``"hash"`` with ``n_shards``
    buckets, or ``"attribute:<name>"``), each partition is dumped as an
    ordinary full snapshot under ``root``, and ``shards.json`` records
    the layout.  Reopen with
    :class:`repro.serve.router.ShardedCubeService`.
    """
    if by == "hash" and n_shards < 1:
        raise SnapshotError(f"n_shards must be >= 1, got {n_shards}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    partitions = _partition(cube, by, n_shards)
    entries = []
    for key in sorted(partitions):
        directory = _shard_dir_name(key)
        shard = _subset_cube(
            cube, partitions[key],
            {"by": by, "key": key, "n_shards": len(partitions)},
        )
        dump_snapshot(shard, root / directory)
        entries.append(ShardEntry(path=directory, key=key))
    manifest = ShardsManifest(
        format_version=SHARDS_FORMAT_VERSION,
        sharded_by=by,
        n_words=int(cube.table.sa_masks.shape[1]),
        entries=entries,
    )
    manifest.write(root)
    return root


def dump_sharded_into_timeline(
    root: "str | Path",
    date: int,
    cube: SegregationCube,
    by: str = "hash",
    n_shards: int = 4,
    parent_date: "int | None" = None,
) -> Path:
    """Write one dated entry into every shard's timeline.

    The sharded counterpart of
    :func:`repro.store.timeline.dump_into_timeline`: the cube at
    ``date`` is partitioned with the *same* key-stable function at
    every date, and each partition lands as a dated snapshot inside its
    shard's timeline directory — published against ``parent_date``
    under the timeline's publish rule when that date exists in the
    shard, a full snapshot otherwise (first date, or a shard key that
    first appears at this date).

    ``shards.json`` is written last, once every shard holds ``date``:
    it lists any new shard and records ``date`` as the
    ``published_date`` (or keeps a newer one), which is what the router
    serves.  A publish cut short leaves the previous record in place,
    and publishing the date again completes it.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    published = int(date)
    if is_sharded(root):
        manifest = ShardsManifest.read(root)
        if manifest.sharded_by != by:
            raise SnapshotError(
                f"timeline at {root} is sharded by "
                f"{manifest.sharded_by!r}, not {by!r}"
            )
        if by == "hash" and manifest.n_shards != n_shards:
            raise SnapshotError(
                f"timeline at {root} has {manifest.n_shards} hash "
                f"shards, not {n_shards}"
            )
        entries = list(manifest.entries)
        if manifest.published_date is not None:
            published = max(published, manifest.published_date)
    else:
        entries = []
    by_key = {entry.key: entry for entry in entries}
    partitions = _partition(cube, by, n_shards)
    # A shard key present at earlier dates but empty at this one still
    # gets a (cell-less) dated entry, so every shard timeline carries
    # the same date set and per-date trends stay mergeable.
    for key in by_key:
        partitions.setdefault(key, np.asarray([], dtype=np.int64))
    for key in sorted(partitions):
        entry = by_key.get(key)
        if entry is None:
            entry = ShardEntry(path=_shard_dir_name(key), key=key)
            entries.append(entry)
            by_key[key] = entry
        shard = _subset_cube(
            cube, partitions[key],
            {"by": by, "key": key, "n_shards": len(partitions),
             "date": int(date)},
        )
        shard_root = root / entry.path
        parent = parent_date
        if parent is not None and not (
            shard_root / str(int(parent)) / MANIFEST_NAME
        ).is_file():
            parent = None   # new shard: no parent to delta against
        dump_into_timeline(shard_root, date, shard, parent_date=parent)
    manifest = ShardsManifest(
        format_version=SHARDS_FORMAT_VERSION,
        sharded_by=by,
        n_words=int(cube.table.sa_masks.shape[1]),
        entries=entries,
        published_date=published,
    )
    manifest.write(root)
    return root
