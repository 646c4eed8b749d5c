"""Write, validate and reopen cube snapshots (one ``.npy`` per column).

A snapshot is a directory::

    snapshot/
      manifest.json      format version, vocabulary, provenance, array map
      population.npy     int64  (n_cells,)
      minority.npy       int64  (n_cells,)
      n_units.npy        int64  (n_cells,)
      sa_masks.npy       uint64 (n_cells, n_words)   packed SA key bitmasks
      ca_masks.npy       uint64 (n_cells, n_words)   packed CA key bitmasks
      col_<i>.npy        float64 (n_cells,)          one per index column

The cell *keys* are not stored separately: they are exactly the packed
bitmasks.  A reopened table looks rows up by those bits and decodes a
row's key only when a query first needs it
(:meth:`~repro.cube.table.CellTable.key_at`).  Reopening therefore
costs a manifest parse plus one checked ``np.load`` per array — with
``mmap=True`` (the default) no array data is read until a query touches
it, which is what makes cold serving start in milliseconds instead of
re-running ETL → mining → fill (benchmark E18).

A **delta** snapshot (:func:`dump_delta_snapshot`) has the same layout
but stores only the cells that are new or changed relative to a
*parent* snapshot, plus the packed key bitmasks of the parent rows it
supersedes (``superseded_sa.npy`` / ``superseded_ca.npy``) and a
``delta`` manifest section naming the parent directory (a relative
path, so a timeline directory is relocatable as a unit).  Reopening a
delta resolves the parent chain — full snapshot at the root, cycle- and
corruption-checked — and composes the cell table as *parent rows minus
superseded plus own rows*.  Each hop of that chain reads each of its
own arrays once, into memory (composing copies them at once), finds the
superseded parent rows with a sort and a binary search over the rows'
packed mask words, and verifies the composed table against the
recorded content digest.  A timeline of cubes with small inter-date
churn therefore shares the unchanged column bytes with its root
instead of duplicating them per date (benchmark E19).

Reopened arrays are read-only (memory-mapped ``mode="r"`` or with the
writeable flag cleared), so an opened snapshot can be shared by any
number of concurrent reader threads.  Composed delta cubes own their
(concatenated) arrays; the parent's columns are only read through,
never retained.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from pathlib import Path

import numpy as np

from repro.cube.cube import SegregationCube
from repro.cube.table import CellTable, TableArrays, packed_rows
from repro.errors import SnapshotError
from repro.store.manifest import (
    MANIFEST_NAME,
    SnapshotManifest,
    dump_directory,
    load_arrays,
)

#: Fixed (non-index) arrays every snapshot carries, with their dtypes.
_FIXED_ARRAYS = {
    "population": "int64",
    "minority": "int64",
    "n_units": "int64",
    "sa_masks": "uint64",
    "ca_masks": "uint64",
}

#: Extra arrays a delta snapshot carries: packed key bitmasks of the
#: parent rows this delta replaces or deletes (shape ``(n_superseded,
#: n_words)``, validated against the manifest's ``delta`` section).
_DELTA_ARRAYS = {
    "superseded_sa": "uint64",
    "superseded_ca": "uint64",
}

#: Arrays of packed key bitmasks, one row of ``n_words`` words per cell.
_MASK_ARRAYS = {"sa_masks", "ca_masks", *_DELTA_ARRAYS}

_COLUMN_DTYPE = "float64"


def _column_file(position: int) -> str:
    return f"col_{position}.npy"


def snapshot_files(manifest: SnapshotManifest) -> "list[str]":
    """All file names a snapshot described by ``manifest`` consists of."""
    return [MANIFEST_NAME] + [info.file for info in manifest.arrays.values()]


def _table_arrays(table: CellTable) -> "list[tuple[str, str, object, str]]":
    """``(name, file, array, dtype)`` of every array a cell table stores."""
    return [
        *((name, f"{name}.npy", getattr(table, name), dtype)
          for name, dtype in _FIXED_ARRAYS.items()),
        *((f"column:{name}", _column_file(position), column, _COLUMN_DTYPE)
          for position, (name, column) in enumerate(table.columns.items())),
    ]


def _rows_of(
    named: "list[tuple[str, str, object, str]]", rows=slice(None)
):
    """Yield each named array's ``rows`` as a contiguous array to save."""
    for name, file, array, dtype in named:
        yield name, file, np.ascontiguousarray(
            np.asarray(array, dtype=dtype)[rows]
        )


def dump_snapshot(cube: SegregationCube, path: "str | Path") -> Path:
    """Persist a built cube to ``path`` (a directory) and return it.

    Existing snapshot files in the directory are overwritten; see
    :func:`~repro.store.manifest.dump_directory` for the crash-safety
    contract.
    """
    manifest = SnapshotManifest.for_cube(cube)
    manifest.content_digest = table_digest(cube.table)
    return dump_directory(
        path, MANIFEST_NAME, manifest, _rows_of(_table_arrays(cube.table))
    )


def _find_rows(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each query, the last row of ``keys`` equal to it, or -1.

    The row a ``{key: row}`` dict over ``keys`` would hold, found with
    one stable sort of ``keys`` and a binary search per query.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.searchsorted(ordered, queries, side="left")
    after = np.searchsorted(ordered, queries, side="right")
    found = after > first
    rows = np.full(len(queries), -1, dtype=np.int64)
    rows[found] = order[after[found] - 1]
    return rows


def table_digest(table: CellTable) -> str:
    """Row-order-independent sha256 of a cell table's full content.

    Rows are hashed in the canonical order of their packed key bitmask
    bytes, so a live cube, its reopened snapshot and a delta chain
    composed in a different row order all digest identically when —
    and only when — they hold bit-identical cells (NaN patterns
    included).
    """
    order = np.argsort(
        packed_rows(table.sa_masks, table.ca_masks), kind="stable"
    )
    digest = hashlib.sha256()
    for name, _, array in _rows_of(_table_arrays(table), order):
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def snapshot_disk_bytes(path: "str | Path") -> int:
    """On-disk byte size of one snapshot directory's *own* files.

    Sums the manifest plus every array file the manifest claims — a
    delta snapshot therefore reports only the bytes it stores itself,
    not the parent chain it composes against, which is exactly the
    number the serving layer's ``info()`` and the timeline's publish
    rule need (chain cost vs byte savings).
    """
    directory = Path(path)
    manifest = SnapshotManifest.read(directory)
    total = 0
    for name in snapshot_files(manifest):
        file = directory / name
        if file.is_file():
            total += file.stat().st_size
    return total


def delta_chain(path: "str | Path") -> "list[Path]":
    """Resolved directories from ``path`` up its parents to its root.

    ``chain[0]`` is ``path`` itself (resolved) and ``chain[-1]`` the
    full snapshot the chain bottoms out on, so a full snapshot's chain
    is just ``[path]``.  Only manifests are read (no array data), so
    the walk is cheap enough to run on every ``info()`` call.  A cyclic
    or unresolvable parent chain raises
    :class:`~repro.errors.SnapshotError`.
    """
    directory = Path(path).resolve()
    chain = [directory]
    manifest = SnapshotManifest.read(directory)
    while manifest.delta is not None:
        directory = (directory / str(manifest.delta["parent"])).resolve()
        if directory in chain:
            loop = " -> ".join(str(p) for p in chain + [directory])
            raise SnapshotError(f"cyclic snapshot parent chain: {loop}")
        chain.append(directory)
        manifest = SnapshotManifest.read(directory)
    return chain


def delta_chain_length(path: "str | Path") -> int:
    """Number of parent hops from ``path`` to its full-snapshot root.

    A full snapshot has length 0; a delta directly on a full snapshot
    has length 1; and so on (see :func:`delta_chain`).
    """
    return len(delta_chain(path)) - 1


def _same_vocabulary(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(
        a.item(i) == b.item(i) and a.kind(i) == b.kind(i)
        for i in range(len(a))
    )


def dump_delta_snapshot(
    cube: SegregationCube,
    path: "str | Path",
    parent_path: "str | Path",
    parent: "SegregationCube | None" = None,
) -> Path:
    """Persist ``cube`` as a *delta* against the snapshot at ``parent_path``.

    Only the cells that are new or changed relative to the parent are
    written (values compared bit-for-bit, so even a NaN-for-NaN match
    counts as unchanged); parent rows that ``cube`` no longer contains,
    or that it replaces, are recorded by their packed key bitmasks in
    the superseded arrays.  The parent is referenced by a path
    *relative to the delta directory*, so a timeline tree moves as one
    unit.  Pass ``parent`` when the parent cube is already open to skip
    re-reading it.

    The cube and its parent must share the item vocabulary and the
    index-column layout (a delta supersedes rows, not schemas); a
    mismatch raises :class:`~repro.errors.SnapshotError`.
    """
    parent_dir = Path(parent_path)
    if parent_dir.resolve() == Path(path).resolve():
        # Writing the delta over its own parent would unlink the parent
        # manifest and overwrite the very arrays the superseded masks
        # are about to be gathered from.
        raise SnapshotError(
            f"delta snapshot target {path} is its own parent; "
            "deltas must land in a separate directory"
        )
    if parent is None:
        parent = open_snapshot(parent_dir, mmap=True)
    else:
        # The caller-supplied cube must actually be the snapshot at
        # parent_path: readers compose against the on-disk parent, so a
        # stale/mismatched cube here would write a delta that silently
        # reopens to different values.  The manifest's content digest
        # covers the parent's *resolved* cells, so the check needs no
        # chain resolution; snapshots predating the digest fall back to
        # reopening the parent from disk.
        on_disk = SnapshotManifest.read(parent_dir)
        if on_disk.content_digest is None:
            parent = open_snapshot(parent_dir, mmap=True)
        elif on_disk.content_digest != table_digest(parent.table):
            raise SnapshotError(
                f"the supplied parent cube does not match the snapshot "
                f"at {parent_dir}; dump the parent first or omit it"
            )
    if not _same_vocabulary(cube.dictionary, parent.dictionary):
        raise SnapshotError(
            "delta snapshot requires the parent's item vocabulary; "
            "dump a full snapshot instead"
        )
    child_table, parent_table = cube.table, parent.table
    if list(child_table.columns) != list(parent_table.columns):
        raise SnapshotError(
            f"delta column layout {list(child_table.columns)} does not "
            f"match parent {list(parent_table.columns)}"
        )
    if child_table.sa_masks.shape[1] != parent_table.sa_masks.shape[1]:
        raise SnapshotError(
            "delta and parent snapshots pack keys into different widths"
        )

    # Align rows on their packed key bitmasks, then find the changed
    # ones with one bitwise comparison per column (floats are compared
    # through their uint64 bit patterns: deterministic fills make
    # unchanged cells bit-identical, NaNs included).
    parent_of = _find_rows(
        packed_rows(parent_table.sa_masks, parent_table.ca_masks),
        packed_rows(child_table.sa_masks, child_table.ca_masks),
    )
    child_idx = np.flatnonzero(parent_of >= 0)
    parent_idx = parent_of[child_idx]
    deleted = np.ones(len(parent_table), dtype=bool)
    deleted[parent_idx] = False

    def col(table: CellTable, name: str) -> np.ndarray:
        return np.asarray(table.arrays.columns[name])

    differs = (
        (np.asarray(parent_table.population)[parent_idx]
         != np.asarray(child_table.population)[child_idx])
        | (np.asarray(parent_table.minority)[parent_idx]
           != np.asarray(child_table.minority)[child_idx])
        | (np.asarray(parent_table.n_units)[parent_idx]
           != np.asarray(child_table.n_units)[child_idx])
    )
    for name in child_table.columns:
        parent_bits = np.ascontiguousarray(
            col(parent_table, name)[parent_idx]
        ).view(np.uint64)
        child_bits = np.ascontiguousarray(
            col(child_table, name)[child_idx]
        ).view(np.uint64)
        differs |= parent_bits != child_bits

    own_idx = np.sort(np.concatenate(
        [np.flatnonzero(parent_of < 0), child_idx[differs]]
    ))
    superseded_idx = np.sort(np.concatenate(
        [np.flatnonzero(deleted), parent_idx[differs]]
    ))

    directory = Path(path)
    manifest = SnapshotManifest.for_cube(cube)
    manifest.n_cells = int(len(own_idx))
    manifest.delta = {
        "parent": os.path.relpath(parent_dir, directory),
        "n_superseded": int(len(superseded_idx)),
    }
    # The digest describes the *resolved* content (the whole child
    # table), not just the delta rows stored here: it is what readers
    # verify after composing the chain, and what a future delta dump
    # checks a caller-supplied parent cube against.
    manifest.content_digest = table_digest(child_table)
    superseded = [
        ("superseded_sa", "superseded_sa.npy", parent_table.sa_masks,
         "uint64"),
        ("superseded_ca", "superseded_ca.npy", parent_table.ca_masks,
         "uint64"),
    ]
    return dump_directory(
        directory, MANIFEST_NAME, manifest,
        itertools.chain(
            _rows_of(_table_arrays(child_table), own_idx),
            _rows_of(superseded, superseded_idx),
        ),
    )


def validate_snapshot(path: "str | Path") -> SnapshotManifest:
    """Check that ``path`` holds a complete, consistent snapshot.

    Raises :class:`~repro.errors.SnapshotError` on a missing or
    malformed manifest, an unsupported format version, a missing array
    entry, a missing or unreadable array file, an array whose
    dtype/shape disagrees with the manifest, a wrong fixed dtype, an
    array not shaped ``(n_cells,)`` (counts and index columns) or
    ``(n_cells, n_words)`` (key masks) — ``n_superseded`` rows for the
    superseded masks — or delta arrays without a delta section.
    Returns the parsed manifest on success.

    These are exactly the per-directory checks :func:`open_snapshot`
    applies: both go through one checked loader that reads each listed
    array once (memory-mapped for a full snapshot, into memory for a
    delta's own arrays).  What only an open checks is the chain — parent
    resolution and cycles, the width, column layout and vocabulary
    against the parent, that the parent holds each superseded row, and
    the content digest of the composed table.
    """
    return _load_checked(Path(path), mmap=True)[0]


def _load_checked(
    directory: Path, mmap: bool
) -> "tuple[SnapshotManifest, dict[str, np.ndarray]]":
    """Parse a snapshot's manifest and load every array it lists, once.

    The shared checked loader
    (:func:`~repro.store.manifest.load_arrays`) checks each array
    against its manifest entry; on top, delta arrays need a delta
    section and every array must have its full shape: ``n_cells`` /
    ``n_superseded`` rows, and ``n_words`` words per row for the key
    masks (see :func:`validate_snapshot`).  A full
    snapshot's arrays are memory-mapped when ``mmap``; a delta's own
    arrays are always read into memory, because composing copies them
    at once.  Every returned array is read-only.
    """
    if not directory.is_dir():
        raise SnapshotError(f"snapshot directory {directory} does not exist")
    manifest = SnapshotManifest.read(directory)
    required = dict(_FIXED_ARRAYS)
    for name in manifest.column_names:
        required[f"column:{name}"] = _COLUMN_DTYPE
    if manifest.delta is not None:
        required.update(_DELTA_ARRAYS)
    if manifest.n_words < 1:
        raise SnapshotError(
            f"manifest n_words must be positive, got {manifest.n_words}"
        )
    for name, info in manifest.arrays.items():
        if name not in _DELTA_ARRAYS:
            rows = manifest.n_cells
        elif manifest.delta is None:
            raise SnapshotError(
                f"manifest lists delta array {name!r} without a "
                "delta section"
            )
        else:
            rows = int(manifest.delta["n_superseded"])
        shape = [rows, manifest.n_words] if name in _MASK_ARRAYS else [rows]
        if info.shape != shape:
            raise SnapshotError(
                f"array {name!r} has shape {tuple(info.shape)}, the "
                f"manifest's counts need {tuple(shape)}"
            )
    arrays = load_arrays(
        directory, manifest.arrays, "snapshot", required,
        mmap=mmap and manifest.delta is None,
    )
    return manifest, arrays


def open_snapshot(
    path: "str | Path",
    mmap: bool = True,
    parents: "dict[Path, SegregationCube] | None" = None,
) -> SegregationCube:
    """Reopen a snapshot as a read-only :class:`SegregationCube`.

    With ``mmap=True`` (default) columns are memory-mapped: the kernel
    pages array data in on demand and shares it between processes
    serving the same snapshot.  With ``mmap=False`` columns are loaded
    into (read-only) process memory.

    A *delta* snapshot resolves its parent chain first (full snapshot
    at the root) and composes the cell table as parent rows minus the
    superseded ones plus its own; a missing or cyclic parent, a
    superseded key absent from the parent, or a parent whose column
    layout/vocabulary disagrees all raise
    :class:`~repro.errors.SnapshotError`.

    ``parents`` (optional) maps *resolved* snapshot directories to
    already-opened cubes: chain resolution reuses them instead of
    re-reading from disk, and every snapshot resolved during this call
    is added to the mapping.  That is how
    :class:`~repro.store.timeline.CubeTimeline` keeps walking an N-date
    delta chain O(N) instead of O(N²), and how a serving refresh
    composes a newly published date onto the cube it already serves
    (:meth:`~repro.store.timeline.CubeTimeline.adopt`): one hop per
    date published since.  A wrong cube supplied for a directory is
    caught for delta children by the content-digest check.

    The returned cube has no lazy resolver: point queries answer from
    materialised cells only (a snapshot does not carry the transaction
    covers a ``closed``-mode resolver would need).
    """
    return _open_chain(
        Path(path), mmap, chain=(),
        parents=parents if parents is not None else {},
    )


def _open_chain(
    path: Path,
    mmap: bool,
    chain: "tuple[Path, ...]",
    parents: "dict[Path, SegregationCube]",
) -> SegregationCube:
    directory = path.resolve()
    cached = parents.get(directory)
    if cached is not None:
        return cached
    if directory in chain:
        loop = " -> ".join(str(p) for p in chain + (directory,))
        raise SnapshotError(f"cyclic snapshot parent chain: {loop}")
    manifest, arrays = _load_checked(directory, mmap)

    if manifest.delta is None:
        table = CellTable.from_arrays(TableArrays(
            population=arrays["population"],
            minority=arrays["minority"],
            n_units=arrays["n_units"],
            sa_masks=arrays["sa_masks"],
            ca_masks=arrays["ca_masks"],
            columns={
                name: arrays[f"column:{name}"]
                for name in manifest.column_names
            },
        ))
    else:
        table = _compose_delta(
            directory, manifest, arrays, mmap, chain, parents
        )

    metadata = manifest.cube_metadata()
    metadata.extra = dict(metadata.extra)
    metadata.extra["snapshot"] = {
        "path": str(directory),
        "created_at": manifest.created_at,
        "mmap": mmap,
        "format_version": manifest.format_version,
    }
    if manifest.delta is not None:
        metadata.extra["snapshot"]["parent"] = str(
            (directory / str(manifest.delta["parent"])).resolve()
        )
        metadata.extra["snapshot"]["delta_depth"] = len(chain) + 1
    cube = SegregationCube(table, manifest.dictionary(), metadata)
    parents[directory] = cube
    return cube


def _compose_delta(
    directory: Path,
    manifest: SnapshotManifest,
    own: "dict[str, np.ndarray]",
    mmap: bool,
    chain: "tuple[Path, ...]",
    parents: "dict[Path, SegregationCube]",
) -> CellTable:
    """Resolve a delta's parent chain and merge the cell rows.

    ``own`` holds the delta's checked arrays, superseded masks included.
    """
    parent_dir = directory / str(manifest.delta["parent"])
    try:
        parent = _open_chain(
            parent_dir, mmap, chain + (directory.resolve(),), parents
        )
    except SnapshotError as exc:
        if "cyclic snapshot parent chain" in str(exc):
            raise
        raise SnapshotError(
            f"delta snapshot {directory} cannot resolve its parent "
            f"{parent_dir}: {exc}"
        ) from exc
    parent_table = parent.table
    if list(parent_table.columns) != manifest.column_names:
        raise SnapshotError(
            f"delta columns {manifest.column_names} do not match parent "
            f"columns {list(parent_table.columns)}"
        )
    if int(parent_table.sa_masks.shape[1]) != manifest.n_words:
        raise SnapshotError(
            "delta and parent snapshots pack keys into different widths"
        )
    if not _same_vocabulary(manifest.dictionary(), parent.dictionary):
        raise SnapshotError(
            f"delta snapshot {directory} and its parent carry different "
            "item vocabularies"
        )

    # Locate the superseded parent rows by their packed key bitmasks.
    superseded = _find_rows(
        packed_rows(parent_table.sa_masks, parent_table.ca_masks),
        packed_rows(own["superseded_sa"], own["superseded_ca"]),
    )
    if (superseded < 0).any():
        raise SnapshotError(
            f"delta snapshot {directory} supersedes a cell its parent "
            "does not contain (superseded-row mask mismatch)"
        )
    keep = np.ones(len(parent_table), dtype=bool)
    keep[superseded] = False

    def compose(parent_array: np.ndarray, name: str) -> np.ndarray:
        merged = np.concatenate([np.asarray(parent_array)[keep], own[name]])
        merged.flags.writeable = False
        return merged

    arrays = TableArrays(
        population=compose(parent_table.population, "population"),
        minority=compose(parent_table.minority, "minority"),
        n_units=compose(parent_table.n_units, "n_units"),
        sa_masks=compose(parent_table.sa_masks, "sa_masks"),
        ca_masks=compose(parent_table.ca_masks, "ca_masks"),
        columns={
            name: compose(parent_table.columns[name], f"column:{name}")
            for name in manifest.column_names
        },
    )
    table = CellTable.from_arrays(arrays)
    # End-to-end chain integrity: the digest was taken over the writer's
    # resolved table, so any drift anywhere up the parent chain — not
    # just in this directory — surfaces here instead of serving wrong
    # numbers.  (Composition materialises every byte anyway, so unlike a
    # full snapshot's lazy mmap open this costs no extra I/O.)
    if (
        manifest.content_digest is not None
        and table_digest(table) != manifest.content_digest
    ):
        raise SnapshotError(
            f"delta snapshot {directory} resolved to content that does "
            "not match its recorded digest (parent chain has drifted "
            "or is corrupted)"
        )
    return table
