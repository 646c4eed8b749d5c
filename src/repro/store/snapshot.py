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
bitmasks, decoded lazily on reopen by
:meth:`~repro.cube.table.CellTable.keys`.  Reopening therefore costs a
manifest parse plus one ``np.load`` per column — with ``mmap=True``
(the default) no array data is read until a query touches it, which is
what makes cold serving start in milliseconds instead of re-running
ETL → mining → fill (benchmark E18).

A **delta** snapshot (:func:`dump_delta_snapshot`) has the same layout
but stores only the cells that are new or changed relative to a
*parent* snapshot, plus the packed key bitmasks of the parent rows it
supersedes (``superseded_sa.npy`` / ``superseded_ca.npy``) and a
``delta`` manifest section naming the parent directory (a relative
path, so a timeline directory is relocatable as a unit).  Reopening a
delta resolves the parent chain — full snapshot at the root, cycle- and
corruption-checked — and composes the cell table as *parent rows minus
superseded plus own rows*.  A timeline of cubes with small inter-date
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
import os
from pathlib import Path

import numpy as np

from repro.cube.cube import SegregationCube
from repro.cube.table import CellTable, TableArrays
from repro.errors import SnapshotError
from repro.store.manifest import (
    MANIFEST_NAME,
    ArrayInfo,
    SnapshotManifest,
    save_array,
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

_COLUMN_DTYPE = "float64"


def _column_file(position: int) -> str:
    return f"col_{position}.npy"


def snapshot_files(manifest: SnapshotManifest) -> "list[str]":
    """All file names a snapshot described by ``manifest`` consists of."""
    return [MANIFEST_NAME] + [info.file for info in manifest.arrays.values()]


def _begin_dump(path: "str | Path") -> Path:
    """Prepare a snapshot directory for (over)writing, crash-safely.

    Any stale manifest is removed *first* (the new one is written
    *last*), so a directory with a readable manifest always describes a
    complete snapshot — a crash mid-dump (even mid-overwrite) leaves a
    manifest-less directory that :func:`open_snapshot` rejects instead
    of a chimera of old and new columns.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / MANIFEST_NAME).unlink(missing_ok=True)
    return directory


def _finish_dump(directory: Path, manifest: SnapshotManifest) -> Path:
    manifest.write(directory)
    # Overwriting a snapshot that had more index columns (or that was a
    # delta and is now full, or vice versa) leaves orphan .npy files
    # behind; prune anything the new manifest does not claim so the
    # directory *is* the snapshot.
    expected = set(snapshot_files(manifest))
    for stale in directory.glob("*.npy"):
        if stale.name not in expected:
            stale.unlink()
    return directory


def _save_cell_arrays(
    directory: Path,
    manifest: SnapshotManifest,
    table: CellTable,
    rows: "np.ndarray | None" = None,
) -> None:
    """Write the cell rows (all, or the ``rows`` subset) as ``.npy`` files."""

    def save(name: str, file: str, array: np.ndarray, dtype: str) -> None:
        array = np.asarray(array, dtype=dtype)
        if rows is not None:
            array = array[rows]
        array = np.ascontiguousarray(array)
        save_array(directory / file, array)
        manifest.arrays[name] = ArrayInfo(
            file=file, dtype=dtype, shape=list(array.shape)
        )

    save("population", "population.npy", table.population, "int64")
    save("minority", "minority.npy", table.minority, "int64")
    save("n_units", "n_units.npy", table.n_units, "int64")
    save("sa_masks", "sa_masks.npy", table.sa_masks, "uint64")
    save("ca_masks", "ca_masks.npy", table.ca_masks, "uint64")
    for position, (name, column) in enumerate(table.columns.items()):
        save(f"column:{name}", _column_file(position), column, _COLUMN_DTYPE)


def dump_snapshot(cube: SegregationCube, path: "str | Path") -> Path:
    """Persist a built cube to ``path`` (a directory) and return it.

    Existing snapshot files in the directory are overwritten; see
    :func:`_begin_dump` for the crash-safety contract.
    """
    directory = _begin_dump(path)
    manifest = SnapshotManifest.for_cube(cube)
    manifest.content_digest = table_digest(cube.table)
    _save_cell_arrays(directory, manifest, cube.table)
    return _finish_dump(directory, manifest)


def _row_mask_keys(table: CellTable) -> "list[bytes]":
    """One hashable key per cell row: its packed (SA, CA) bitmask bytes."""
    combined = np.ascontiguousarray(
        np.concatenate(
            [np.asarray(table.sa_masks), np.asarray(table.ca_masks)], axis=1
        )
    )
    return [combined[i].tobytes() for i in range(len(combined))]


def table_digest(table: CellTable) -> str:
    """Row-order-independent sha256 of a cell table's full content.

    Rows are hashed in the canonical order of their packed key bitmask
    bytes, so a live cube, its reopened snapshot and a delta chain
    composed in a different row order all digest identically when —
    and only when — they hold bit-identical cells (NaN patterns
    included).
    """
    order = np.asarray(
        sorted(range(len(table)), key=_row_mask_keys(table).__getitem__),
        dtype=np.int64,
    )
    digest = hashlib.sha256()
    for name, array, dtype in (
        ("population", table.population, "int64"),
        ("minority", table.minority, "int64"),
        ("n_units", table.n_units, "int64"),
        ("sa_masks", table.sa_masks, "uint64"),
        ("ca_masks", table.ca_masks, "uint64"),
        *(
            (f"column:{name}", column, _COLUMN_DTYPE)
            for name, column in table.columns.items()
        ),
    ):
        digest.update(name.encode())
        digest.update(
            np.ascontiguousarray(
                np.asarray(array, dtype=dtype)[order]
            ).tobytes()
        )
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
    parent_rows = {
        key: i for i, key in enumerate(_row_mask_keys(parent_table))
    }
    own_rows: "list[int]" = []
    matched_child: "list[int]" = []
    matched_parent: "list[int]" = []
    for j, key in enumerate(_row_mask_keys(child_table)):
        i = parent_rows.pop(key, None)
        if i is None:
            own_rows.append(j)
        else:
            matched_child.append(j)
            matched_parent.append(i)
    superseded = sorted(parent_rows.values())   # deleted outright
    if matched_child:
        child_idx = np.asarray(matched_child, dtype=np.int64)
        parent_idx = np.asarray(matched_parent, dtype=np.int64)

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
        own_rows.extend(child_idx[differs].tolist())
        superseded.extend(parent_idx[differs].tolist())

    own_idx = np.asarray(sorted(own_rows), dtype=np.int64)
    superseded_idx = np.asarray(sorted(superseded), dtype=np.int64)

    directory = _begin_dump(path)
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
    _save_cell_arrays(directory, manifest, child_table, rows=own_idx)
    for name, source in (
        ("superseded_sa", parent_table.sa_masks),
        ("superseded_ca", parent_table.ca_masks),
    ):
        array = np.ascontiguousarray(
            np.asarray(source, dtype="uint64")[superseded_idx]
        )
        file = f"{name}.npy"
        save_array(directory / file, array)
        manifest.arrays[name] = ArrayInfo(
            file=file, dtype="uint64", shape=list(array.shape)
        )
    return _finish_dump(directory, manifest)


def validate_snapshot(path: "str | Path") -> SnapshotManifest:
    """Check that ``path`` holds a complete, consistent snapshot.

    Raises :class:`~repro.errors.SnapshotError` on a missing or
    malformed manifest, an unsupported format version, a missing array
    file, or an array whose dtype/shape disagrees with the manifest.
    Returns the parsed manifest on success.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise SnapshotError(f"snapshot directory {directory} does not exist")
    manifest = SnapshotManifest.read(directory)

    expected = dict(_FIXED_ARRAYS)
    for name in manifest.column_names:
        expected[f"column:{name}"] = _COLUMN_DTYPE
    if manifest.delta is not None:
        expected.update(_DELTA_ARRAYS)
    missing = sorted(set(expected) - set(manifest.arrays))
    if missing:
        raise SnapshotError(
            f"manifest lists no array entry for: {', '.join(missing)}"
        )

    for name, info in manifest.arrays.items():
        file = directory / info.file
        if not file.is_file():
            raise SnapshotError(f"snapshot array file missing: {file}")
        try:
            array = np.load(file, mmap_mode="r", allow_pickle=False)
        except (ValueError, OSError) as exc:
            raise SnapshotError(
                f"snapshot array {info.file} is unreadable: {exc}"
            ) from exc
        if str(array.dtype) != info.dtype or list(array.shape) != info.shape:
            raise SnapshotError(
                f"snapshot array {info.file} is {array.dtype}{array.shape}, "
                f"manifest says {info.dtype}{tuple(info.shape)}"
            )
        want_dtype = expected.get(name)
        if want_dtype is not None and info.dtype != want_dtype:
            raise SnapshotError(
                f"array {name!r} must be {want_dtype}, manifest says "
                f"{info.dtype}"
            )
        if name in _DELTA_ARRAYS:
            if manifest.delta is None:
                raise SnapshotError(
                    f"manifest lists delta array {name!r} without a "
                    "delta section"
                )
            n_superseded = int(manifest.delta["n_superseded"])
            if info.shape[0] != n_superseded:
                raise SnapshotError(
                    f"array {name!r} has {info.shape[0]} rows for "
                    f"{n_superseded} superseded cells"
                )
        elif info.shape[0] != manifest.n_cells:
            raise SnapshotError(
                f"array {name!r} has {info.shape[0]} rows for "
                f"{manifest.n_cells} cells"
            )
    return manifest


def _load(directory: Path, info: ArrayInfo, mmap: bool) -> np.ndarray:
    array = np.load(
        directory / info.file,
        mmap_mode="r" if mmap else None,
        allow_pickle=False,
    )
    if not mmap:
        # Serving is strictly read-only; enforce it on owned arrays the
        # way mode="r" memory maps already do.
        array.flags.writeable = False
    return array


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
    is added to the mapping — how
    :class:`~repro.store.timeline.CubeTimeline` keeps walking an
    N-date delta chain O(N) instead of O(N²).  A wrong cube supplied
    for a directory is caught for delta children by the content-digest
    check.

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
    manifest = validate_snapshot(directory)

    if manifest.delta is None:
        arrays = TableArrays(
            population=_load(directory, manifest.arrays["population"], mmap),
            minority=_load(directory, manifest.arrays["minority"], mmap),
            n_units=_load(directory, manifest.arrays["n_units"], mmap),
            sa_masks=_load(directory, manifest.arrays["sa_masks"], mmap),
            ca_masks=_load(directory, manifest.arrays["ca_masks"], mmap),
            columns={
                name: _load(
                    directory, manifest.arrays[f"column:{name}"], mmap
                )
                for name in manifest.column_names
            },
        )
        table = CellTable.from_arrays(arrays)
    else:
        table = _compose_delta(directory, manifest, mmap, chain, parents)

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
    mmap: bool,
    chain: "tuple[Path, ...]",
    parents: "dict[Path, SegregationCube]",
) -> CellTable:
    """Resolve a delta's parent chain and merge the cell rows."""
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
    sup_sa = np.load(
        directory / manifest.arrays["superseded_sa"].file, allow_pickle=False
    )
    sup_ca = np.load(
        directory / manifest.arrays["superseded_ca"].file, allow_pickle=False
    )
    if sup_sa.shape[1:] != (manifest.n_words,) or \
            sup_ca.shape[1:] != (manifest.n_words,):
        raise SnapshotError(
            f"superseded-row masks in {directory} are not "
            f"{manifest.n_words} words wide"
        )
    parent_index = {
        key: i for i, key in enumerate(_row_mask_keys(parent_table))
    }
    keep = np.ones(len(parent_table), dtype=bool)
    combined = np.ascontiguousarray(np.concatenate([sup_sa, sup_ca], axis=1))
    for row in range(len(combined)):
        i = parent_index.get(combined[row].tobytes())
        if i is None:
            raise SnapshotError(
                f"delta snapshot {directory} supersedes a cell its parent "
                "does not contain (superseded-row mask mismatch)"
            )
        keep[i] = False

    def compose(parent_array: np.ndarray, info: ArrayInfo) -> np.ndarray:
        own = _load(directory, info, mmap)
        merged = np.concatenate([np.asarray(parent_array)[keep], own])
        merged.flags.writeable = False
        return merged

    arrays = TableArrays(
        population=compose(
            parent_table.population, manifest.arrays["population"]
        ),
        minority=compose(parent_table.minority, manifest.arrays["minority"]),
        n_units=compose(parent_table.n_units, manifest.arrays["n_units"]),
        sa_masks=compose(parent_table.sa_masks, manifest.arrays["sa_masks"]),
        ca_masks=compose(parent_table.ca_masks, manifest.arrays["ca_masks"]),
        columns={
            name: compose(
                parent_table.columns[name], manifest.arrays[f"column:{name}"]
            )
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
