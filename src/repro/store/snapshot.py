"""Write, validate and reopen cube snapshots (one data file per directory).

A snapshot is a directory::

    snapshot/
      manifest.json   format version (3), vocabulary (a full snapshot
                      only), provenance, digest, data-file size, and
                      one entry per array: {"offset", "dtype", "shape"}
      data.bin        every array's bytes, each at a 64-byte aligned
                      offset, zero-padded to the next one:
        population    int64   (n_cells,)
        minority      int64   (n_cells,)
        n_units       int64   (n_cells,)
        sa_masks      uint64  (n_cells, n_words)   packed SA key bitmasks
        ca_masks      uint64  (n_cells, n_words)   packed CA key bitmasks
        column:<name> float64 (n_cells,)           one per index column

The cell *keys* are not stored separately: they are exactly the packed
bitmasks.  A reopened table looks rows up by those bits and decodes a
row's key only when a query first needs it
(:meth:`~repro.cube.table.CellTable.key_at`).  Reopening therefore
costs a manifest parse plus one checked open of the data file — with
``mmap=True`` (the default) it is mapped once and sliced, and no array
data is read until a query touches it, which is what makes cold
serving start in milliseconds instead of re-running ETL → mining →
fill (benchmark E18).

A **delta** snapshot (:func:`dump_delta_snapshot`) has the same layout
but stores only the cells that are new or changed relative to a
*parent* snapshot, plus the packed key bitmasks of the parent rows it
supersedes (the ``superseded_sa`` / ``superseded_ca`` arrays) and a
``delta`` manifest section naming the parent directory (a relative
path, so a timeline directory is relocatable as a unit).  A delta is
only written over a parent with the same item vocabulary, so its
manifest leaves the vocabulary out and the reopened delta takes its
parent's :class:`~repro.itemsets.items.ItemDictionary` object: a chain
decodes one vocabulary, at its full-snapshot root.  Reopening a delta
resolves the parent chain — full snapshot at the root, cycle- and
corruption-checked — and composes the cell table as *parent rows minus
superseded plus own rows*.  Each hop of that chain reads its data file
once, into memory (composing copies its arrays at once), finds the
superseded parent rows by a binary search in the parent's canonical
order (:meth:`~repro.cube.table.CellTable.canonical_order`, its rows
sorted by packed key), and verifies the composed table against the
recorded content digest.  The composed table's order is merged, not
sorted: the parent's order without the superseded rows, with the
delta's own rows, sorted alone, inserted after the equal keys.  A chain
therefore sorts one whole table, its root's.  The composed table also
remembers which parent rows it superseded, so what a date changed
since its parent (:func:`changed_cells`) costs no row comparison when
a walk composed it.  A timeline of cubes with small inter-date churn
shares the unchanged column bytes with its root instead of duplicating
them per date (benchmark E19).

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
    DATA_NAME,
    MANIFEST_NAME,
    DumpPlan,
    SnapshotManifest,
    load_arrays,
    plan_directory,
    vocabulary_entries,
    write_directory,
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


def _table_arrays(table: CellTable) -> "list[tuple[str, object, str]]":
    """``(name, array, dtype)`` of every array a cell table stores."""
    return [
        *((name, getattr(table, name), dtype)
          for name, dtype in _FIXED_ARRAYS.items()),
        *((f"column:{name}", column, _COLUMN_DTYPE)
          for name, column in table.columns.items()),
    ]


def _rows_of(named: "list[tuple[str, object, str]]", rows=slice(None)):
    """Yield each named array's ``rows`` as a contiguous array to save."""
    for name, array, dtype in named:
        yield name, np.ascontiguousarray(np.asarray(array, dtype=dtype)[rows])


def plan_snapshot(cube: SegregationCube) -> DumpPlan:
    """Lay out a full snapshot of ``cube``; nothing is written."""
    manifest = SnapshotManifest.for_cube(cube, table_digest(cube.table), None)
    return plan_directory(
        MANIFEST_NAME, manifest, _rows_of(_table_arrays(cube.table))
    )


def dump_snapshot(cube: SegregationCube, path: "str | Path") -> Path:
    """Persist a built cube to ``path`` (a directory) and return it.

    Existing snapshot files in the directory are overwritten; see
    :func:`~repro.store.manifest.write_directory` for the crash-safety
    contract.
    """
    return write_directory(path, plan_snapshot(cube))


def _find_rows(
    ordered: np.ndarray, order: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """For each query, the last row whose key equals it, or -1.

    ``ordered`` is the keys in ``order``, their stable sort (a table's
    canonical order), so the row a ``{key: row}`` dict over the keys
    would hold is found by a binary search per query; nothing is
    sorted here.
    """
    first = np.searchsorted(ordered, queries, side="left")
    after = np.searchsorted(ordered, queries, side="right")
    found = after > first
    rows = np.full(len(queries), -1, dtype=np.int64)
    rows[found] = order[after[found] - 1]
    return rows


def _sorted_keys(table: CellTable) -> "tuple[np.ndarray, np.ndarray]":
    """A table's canonical order and its packed keys in that order."""
    order = table.canonical_order()
    return packed_rows(table.sa_masks, table.ca_masks)[order], order


def table_digest(table: CellTable) -> str:
    """Row-order-independent sha256 of a cell table's full content.

    Rows are hashed in the canonical order of their packed key bitmask
    bytes (:meth:`~repro.cube.table.CellTable.canonical_order`), so a
    live cube, its reopened snapshot and a delta chain composed in a
    different row order all digest identically when — and only when —
    they hold bit-identical cells (NaN patterns included).  The table
    keeps its digest (:meth:`~repro.cube.table.CellTable.content_digest`),
    so each table is hashed once.
    """
    return table.content_digest(_hash_rows)


def _hash_rows(table: CellTable, order: np.ndarray) -> str:
    digest = hashlib.sha256()
    for name, array in _rows_of(_table_arrays(table), order):
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def snapshot_disk_bytes(path: "str | Path") -> int:
    """On-disk byte size of one snapshot directory's *own* files.

    The manifest plus the data file — a delta snapshot therefore
    reports only the bytes it stores itself, not the parent chain it
    composes against, which is exactly the number the serving layer's
    ``info()`` and the timeline's publish rule need (chain cost vs byte
    savings).
    """
    directory = Path(path)
    try:
        return sum(
            (directory / name).stat().st_size
            for name in (MANIFEST_NAME, DATA_NAME)
        )
    except OSError as exc:
        raise SnapshotError(
            f"snapshot {directory} is incomplete: {exc}"
        ) from exc


def chain_manifests(
    path: "str | Path",
) -> "list[tuple[Path, SnapshotManifest]]":
    """``(resolved directory, manifest)`` from ``path`` up its parents
    to its root.

    The first entry is ``path`` itself and the last the full snapshot
    the chain bottoms out on, so a full snapshot's chain is its own
    entry alone.  Only manifests are read (no array data), each once,
    so the walk is cheap enough to run on every ``info()`` call.  A
    cyclic or unresolvable parent chain raises
    :class:`~repro.errors.SnapshotError`.
    """
    directory = Path(path).resolve()
    manifest = SnapshotManifest.read(directory)
    chain = [(directory, manifest)]
    while manifest.delta is not None:
        directory = (directory / str(manifest.delta["parent"])).resolve()
        walked = [seen for seen, _ in chain]
        if directory in walked:
            loop = " -> ".join(str(p) for p in walked + [directory])
            raise SnapshotError(f"cyclic snapshot parent chain: {loop}")
        manifest = SnapshotManifest.read(directory)
        chain.append((directory, manifest))
    return chain


def delta_chain(path: "str | Path") -> "list[Path]":
    """The directories of :func:`chain_manifests`: ``chain[0]`` is
    ``path`` (resolved) and ``chain[-1]`` its full-snapshot root."""
    return [directory for directory, _ in chain_manifests(path)]


def delta_chain_length(path: "str | Path") -> int:
    """Number of parent hops from ``path`` to its full-snapshot root.

    A full snapshot has length 0; a delta directly on a full snapshot
    has length 1; and so on (see :func:`delta_chain`).
    """
    return len(delta_chain(path)) - 1


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

    The cube and its parent must share the item vocabulary (the delta
    is written without one and reopens with its parent's) and the
    index-column layout (a delta supersedes rows, not schemas); a
    mismatch raises :class:`~repro.errors.SnapshotError`.
    """
    return write_directory(path, plan_delta(
        cube, path, parent_path, parent, delta_chain(parent_path)[-1]
    ))


def _delta_mismatch(
    cube: SegregationCube, parent: SegregationCube
) -> "str | None":
    """Why ``cube``'s cells cannot be read as changes to ``parent``'s
    (another vocabulary, index-column layout or key width), or None."""
    if cube.dictionary is not parent.dictionary and vocabulary_entries(
        cube.dictionary
    ) != vocabulary_entries(parent.dictionary):
        return (
            "delta snapshot requires the parent's item vocabulary; "
            "dump a full snapshot instead"
        )
    table, parent_table = cube.table, parent.table
    if list(table.columns) != list(parent_table.columns):
        return (
            f"delta column layout {list(table.columns)} does not "
            f"match parent {list(parent_table.columns)}"
        )
    if table.sa_masks.shape[1] != parent_table.sa_masks.shape[1]:
        return "delta and parent snapshots pack keys into different widths"
    return None


def _changed_rows(
    table: CellTable, parent_table: CellTable
) -> "tuple[np.ndarray, np.ndarray]":
    """The rows of ``table`` that are new or changed against
    ``parent_table``, and the parent rows those replace or that
    ``table`` no longer holds, both ascending.

    Rows align on their packed key bitmasks; a row has changed when a
    count or an index value differs, floats compared through their
    uint64 bit patterns (deterministic fills make unchanged cells
    bit-identical, NaNs included).
    """
    parent_of = _find_rows(
        *_sorted_keys(parent_table),
        packed_rows(table.sa_masks, table.ca_masks),
    )
    child_idx = np.flatnonzero(parent_of >= 0)
    parent_idx = parent_of[child_idx]
    deleted = np.ones(len(parent_table), dtype=bool)
    deleted[parent_idx] = False

    def col(table: CellTable, name: str) -> np.ndarray:
        return np.asarray(table.arrays.columns[name])

    differs = (
        (np.asarray(parent_table.population)[parent_idx]
         != np.asarray(table.population)[child_idx])
        | (np.asarray(parent_table.minority)[parent_idx]
           != np.asarray(table.minority)[child_idx])
        | (np.asarray(parent_table.n_units)[parent_idx]
           != np.asarray(table.n_units)[child_idx])
    )
    for name in table.columns:
        parent_bits = np.ascontiguousarray(
            col(parent_table, name)[parent_idx]
        ).view(np.uint64)
        child_bits = np.ascontiguousarray(
            col(table, name)[child_idx]
        ).view(np.uint64)
        differs |= parent_bits != child_bits

    own_idx = np.sort(np.concatenate(
        [np.flatnonzero(parent_of < 0), child_idx[differs]]
    ))
    superseded_idx = np.sort(np.concatenate(
        [np.flatnonzero(deleted), parent_idx[differs]]
    ))
    return own_idx, superseded_idx


def changed_cells(
    cube: SegregationCube, previous: SegregationCube
) -> "CellTable | None":
    """What changed from ``previous``'s cells to ``cube``'s, as a table.

    Its rows are first each cell of ``previous`` that ``cube`` changes
    or no longer holds, with zero counts and NaN index values, then
    each cell of ``cube`` that is new or changed, as ``cube`` holds it.
    A key's last row is the one :meth:`~repro.cube.table.CellTable.row_of`
    finds, so a key found here reads its value in ``cube`` (NaN for a
    removed cell, as for any absent one), and a key not found here has
    the value it had in ``previous``.  None when the two cubes cannot be
    compared cell by cell: another vocabulary, index-column layout or
    key width.  A table composed onto ``previous``'s as a delta already
    knows its own and superseded rows; any other pair is compared row by
    row, as the delta writer does.
    """
    if _delta_mismatch(cube, previous) is not None:
        return None
    table, previous_table = cube.table, previous.table
    recorded = table.changes_since(previous_table)
    own, gone = recorded if recorded is not None else _changed_rows(
        table, previous_table
    )

    def rows(before: np.ndarray, array: np.ndarray) -> np.ndarray:
        return np.concatenate([before, np.asarray(array)[own]])

    zeros = np.zeros(len(gone), dtype=np.int64)
    return CellTable.from_arrays(TableArrays(
        population=rows(zeros, table.population),
        minority=rows(zeros, table.minority),
        n_units=rows(zeros, table.n_units),
        sa_masks=rows(np.asarray(previous_table.sa_masks)[gone],
                      table.sa_masks),
        ca_masks=rows(np.asarray(previous_table.ca_masks)[gone],
                      table.ca_masks),
        columns={
            name: rows(np.full(len(gone), np.nan), column)
            for name, column in table.columns.items()
        },
    ))


def plan_delta(
    cube: SegregationCube,
    path: "str | Path",
    parent_path: "str | Path",
    parent: "SegregationCube | None",
    root: Path,
) -> DumpPlan:
    """Lay out :func:`dump_delta_snapshot`'s delta; nothing is written.

    ``root`` is the full snapshot at the bottom of ``parent_path``'s
    delta chain, whose vocabulary the delta reopens with.  The plan's
    ``nbytes`` are the delta's own bytes, which the timeline's publish
    rule weighs before it writes anything.
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
    elif SnapshotManifest.read(parent_dir).content_digest != table_digest(
        parent.table
    ) or vocabulary_entries(parent.dictionary) != SnapshotManifest.read(
        root
    ).items:
        # The caller-supplied cube must actually be the snapshot at
        # parent_path: readers compose against the on-disk parent and
        # its chain root's vocabulary, so a stale/mismatched cube here
        # (other cells, or the same cells over relabelled items) would
        # write a delta that silently reopens to different values.  The
        # manifest's content digest covers the parent's *resolved*
        # cells, so the check needs no chain resolution.
        raise SnapshotError(
            f"the supplied parent cube does not match the snapshot "
            f"at {parent_dir}; dump the parent first or omit it"
        )
    reason = _delta_mismatch(cube, parent)
    if reason is not None:
        raise SnapshotError(reason)
    own_idx, superseded_idx = _changed_rows(cube.table, parent.table)

    # The digest describes the *resolved* content (the whole child
    # table), not just the delta rows stored here: it is what readers
    # verify after composing the chain, and what a future delta dump
    # checks a caller-supplied parent cube against.
    manifest = SnapshotManifest.for_cube(cube, table_digest(cube.table), {
        "parent": os.path.relpath(parent_dir, Path(path)),
        "n_superseded": int(len(superseded_idx)),
    })
    manifest.n_cells = int(len(own_idx))
    superseded = [
        ("superseded_sa", parent.table.sa_masks, "uint64"),
        ("superseded_ca", parent.table.ca_masks, "uint64"),
    ]
    return plan_directory(
        MANIFEST_NAME, manifest,
        itertools.chain(
            _rows_of(_table_arrays(cube.table), own_idx),
            _rows_of(superseded, superseded_idx),
        ),
    )


def validate_snapshot(path: "str | Path") -> SnapshotManifest:
    """Check that ``path`` holds a complete, consistent snapshot.

    Raises :class:`~repro.errors.SnapshotError` on a missing or
    malformed manifest (its content digest and data-file size
    included), an unsupported format version, a missing or unknown
    array entry, a wrong fixed dtype, an entry that is misaligned,
    overlaps the entry before it or ends past the data file, a missing
    or unreadable data file or one whose size is not the recorded one,
    an array not shaped ``(n_cells,)`` (counts and index columns) or
    ``(n_cells, n_words)`` (key masks) — ``n_superseded`` rows for the
    superseded masks — or delta arrays without a delta section.
    Returns the parsed manifest on success.

    These are exactly the per-directory checks :func:`open_snapshot`
    applies: both go through one checked loader that opens the data
    file once (memory-mapped for a full snapshot, into memory for a
    delta).  What only an open checks is the chain — parent
    resolution and cycles, the width, column layout and vocabulary
    size against the parent, that the parent holds each superseded
    row, and the content digest of the composed table.
    """
    return _load_checked(Path(path), mmap=True)[0]


def _load_checked(
    directory: Path, mmap: bool
) -> "tuple[SnapshotManifest, dict[str, np.ndarray]]":
    """Parse a snapshot's manifest and load every array it lists, once.

    The shared checked loader
    (:func:`~repro.store.manifest.load_arrays`) checks the entries and
    the data file; on top, delta arrays need a delta
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
        if name in _DELTA_ARRAYS and manifest.delta is None:
            raise SnapshotError(
                f"manifest lists delta array {name!r} without a "
                "delta section"
            )
        if name not in required:
            continue   # the loader refuses it
        if name in _DELTA_ARRAYS:
            rows = int(manifest.delta["n_superseded"])
        else:
            rows = manifest.n_cells
        shape = [rows, manifest.n_words] if name in _MASK_ARRAYS else [rows]
        if info.shape != shape:
            raise SnapshotError(
                f"array {name!r} has shape {tuple(info.shape)}, the "
                f"manifest's counts need {tuple(shape)}"
            )
    if manifest.delta is None and manifest.items is None:
        raise SnapshotError(
            "snapshot manifest is missing required fields: items"
        )
    arrays = load_arrays(
        directory, manifest, "snapshot", required,
        mmap=mmap and manifest.delta is None,
    )
    return manifest, arrays


def open_snapshot(
    path: "str | Path",
    mmap: bool = True,
    onto: "tuple[Path, SegregationCube] | None" = None,
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
    layout or vocabulary size disagrees all raise
    :class:`~repro.errors.SnapshotError`.

    ``onto`` (optional) is an already-opened cube and its *resolved*
    snapshot directory: when the chain runs through that directory, it
    composes onto the cube there instead of reading the rest of the
    chain from disk.  That is how
    :class:`~repro.store.timeline.CubeTimeline` walks its dates one hop
    each, and how a serving refresh composes a newly published date
    onto the cube it already serves: one hop per date published since.
    A wrong cube is caught by its delta child's content-digest check.
    The parents a call resolves are dropped when it returns.

    The returned cube has no lazy resolver: point queries answer from
    materialised cells only (a snapshot does not carry the transaction
    covers a ``closed``-mode resolver would need).
    """
    return _open_chain(Path(path), mmap, chain=(), onto=onto)


def _open_chain(
    path: Path,
    mmap: bool,
    chain: "tuple[Path, ...]",
    onto: "tuple[Path, SegregationCube] | None",
) -> SegregationCube:
    directory = path.resolve()
    if onto is not None and directory == onto[0]:
        return onto[1]
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
        dictionary = manifest.dictionary()
    else:
        parent_dir = directory / str(manifest.delta["parent"])
        try:
            parent = _open_chain(
                parent_dir, mmap, chain + (directory,), onto
            )
        except SnapshotError as exc:
            if "cyclic snapshot parent chain" in str(exc):
                raise
            raise SnapshotError(
                f"delta snapshot {directory} cannot resolve its parent "
                f"{parent_dir}: {exc}"
            ) from exc
        table = _compose_delta(directory, manifest, arrays, parent)
        dictionary = parent.dictionary

    metadata = manifest.cube_metadata()
    metadata.extra = dict(metadata.extra)
    metadata.extra["snapshot"] = {
        "path": str(directory),
        "created_at": manifest.created_at,
        "mmap": mmap,
        "format_version": manifest.format_version,
    }
    if manifest.delta is not None:
        metadata.extra["snapshot"]["parent"] = str(parent_dir.resolve())
        metadata.extra["snapshot"]["delta_depth"] = len(chain) + 1
    return SegregationCube(table, dictionary, metadata)


def _merged_order(
    ordered: np.ndarray,
    order: np.ndarray,
    keep: np.ndarray,
    own_keys: np.ndarray,
) -> np.ndarray:
    """The canonical order of the rows ``parent[keep]`` then ``own``.

    ``order`` is the parent's canonical order and ``ordered`` its keys
    in that order.  Restricted to the kept rows (renumbered), it stays
    a stable sort of them.  The own rows are sorted alone and each
    goes after every kept row with an equal key (``side="right"``),
    where a stable sort of the composed keys puts it, since own rows
    follow the kept ones; equal own keys keep their row order.
    """
    kept = keep[order]
    kept_rows = (np.cumsum(keep) - 1)[order[kept]]
    own_order = np.argsort(own_keys, kind="stable")
    at = np.searchsorted(ordered[kept], own_keys[own_order], side="right")
    at += np.arange(len(own_order))
    merged = np.empty(len(kept_rows) + len(own_order), dtype=np.intp)
    is_own = np.zeros(len(merged), dtype=bool)
    is_own[at] = True
    merged[at] = own_order + len(kept_rows)
    merged[~is_own] = kept_rows
    return merged


def _compose_delta(
    directory: Path,
    manifest: SnapshotManifest,
    own: "dict[str, np.ndarray]",
    parent: SegregationCube,
) -> CellTable:
    """Merge a delta's rows onto its opened parent's, then verify them.

    ``own`` holds the delta's checked arrays, superseded masks included.
    """
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
    if len(parent.dictionary) != manifest.n_items:
        raise SnapshotError(
            f"delta snapshot {directory} records {manifest.n_items} "
            f"items, its parent's vocabulary holds {len(parent.dictionary)}"
        )

    # Locate the superseded parent rows by their packed key bitmasks.
    ordered, order = _sorted_keys(parent_table)
    superseded = _find_rows(
        ordered, order,
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
    table = CellTable.from_ordered_arrays(arrays, _merged_order(
        ordered, order, keep, packed_rows(own["sa_masks"], own["ca_masks"]),
    ), parent_table, np.flatnonzero(~keep))
    # End-to-end chain integrity: the digest was taken over the writer's
    # resolved table, so any drift anywhere up the parent chain — not
    # just in this directory — surfaces here instead of serving wrong
    # numbers.  (Composition materialises every byte anyway, so unlike a
    # full snapshot's lazy mmap open this costs no extra I/O.)
    if table_digest(table) != manifest.content_digest:
        raise SnapshotError(
            f"delta snapshot {directory} resolved to content that does "
            "not match its recorded digest (parent chain has drifted "
            "or is corrupted)"
        )
    return table
