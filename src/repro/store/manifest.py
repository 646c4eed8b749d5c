"""The store's file layer, and the snapshot manifest.

Every file the store writes or reads goes through the functions here.
No other store module calls ``np.save``, ``np.load``, ``os.replace``,
``os.fsync`` or ``unlink`` itself, so the crash-point tests can fail
each of those calls of a writer in turn:

* :func:`write_atomic` replaces a manifest so that readers see the old
  or the new file, never a torn one.  Every manifest the store writes —
  ``manifest.json``, ``graph_manifest.json`` and ``timeline.json`` —
  goes through it.
* :func:`save_array` writes one ``.npy`` array as a new inode, so live
  memory-mapped readers keep the old bytes.
* :func:`dump_directory` is the dump protocol of a directory of arrays
  behind one manifest (cube snapshots, deltas, graph snapshots): the
  stale manifest is unlinked first, each array saved and recorded as an
  :class:`ArrayInfo`, the manifest written last, and every ``.npy``
  file it does not claim pruned.  A directory with a readable manifest
  therefore always describes a complete dump.
* :func:`read_manifest` is the preamble the versioned manifests share:
  the file exists, is a JSON object (:func:`read_json`, which also
  reads the advisory ``timeline.json``) of the right format version
  with the required fields, and its ``arrays`` entries parse.
* :func:`load_arrays` is the checked loader: every required array is
  listed with its dtype, and every listed array is present, loaded once
  without pickles, of the dtype and shape its entry records, and
  read-only.

Every read failure raises :class:`~repro.errors.SnapshotError` with a
message naming the missing or mismatching field or file, so a corrupted
or future-versioned directory fails loudly instead of serving garbage.

The rest of the module is the cube snapshot's manifest: the format
version, the typed item vocabulary (so cell keys decode back to
``attribute=value`` pairs), the declared index names, the
:class:`~repro.cube.cube.CubeMetadata` provenance of the build, and one
:class:`ArrayInfo` per stored array.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.cube.cube import CubeMetadata
from repro.errors import SnapshotError
from repro.itemsets.items import Item, ItemDictionary, ItemKind

#: Current snapshot format.  Bump on any incompatible layout change;
#: readers refuse snapshots written under a different version.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

_METADATA_FIELDS = (
    "index_names",
    "min_population",
    "min_minority",
    "n_rows",
    "n_units",
    "mode",
    "backend",
    "build_seconds",
    "extra",
)

_VALUE_DECODERS = {"str": str, "int": int, "float": float, "bool": bool}


def write_atomic(path: "str | Path", text: str) -> Path:
    """Replace ``path`` with ``text``; readers see the old or the new file.

    The text goes to a temporary file in the same directory, which is
    flushed and fsynced, then renamed over ``path`` (atomic on POSIX);
    the directory is fsynced last so the rename itself is durable.  On
    any failure the temporary file is removed and ``path`` keeps its
    previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return path


def save_array(path: "str | Path", array: np.ndarray) -> None:
    """``np.save`` ``array`` to ``path`` as a new file (a fresh inode).

    ``np.save`` alone truncates and rewrites an existing file in place,
    under any reader that still maps it: an ``open_snapshot(...,
    mmap=True)`` cube would read past the new end (SIGBUS), and a cube
    re-dumped onto its own directory would read its source while it is
    being overwritten.  Unlinking first leaves the old inode to those
    readers, so they keep seeing the old bytes.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    np.save(path, array)


@dataclass
class ArrayInfo:
    """Where one stored array lives and what it must look like."""

    file: str
    dtype: str
    shape: "list[int]"


def dump_directory(
    path: "str | Path",
    manifest_name: str,
    manifest,
    arrays: "Iterable[tuple[str, str, np.ndarray]]",
) -> Path:
    """Dump ``arrays`` behind ``manifest`` into the directory ``path``.

    ``arrays`` yields ``(name, file, array)`` triples, saved one at a
    time with :func:`save_array` and recorded in ``manifest.arrays``;
    ``manifest.to_json()`` then goes to ``manifest_name`` through
    :func:`write_atomic`.  The stale manifest is unlinked *first* and
    the new one written *last*, so a crash at any point — even in the
    middle of an overwrite — leaves either a manifest-less directory,
    which every reader rejects, or a complete dump: never an old
    manifest over new arrays.  Last, every ``.npy`` file the manifest
    does not claim (left by an earlier dump with more arrays) is
    pruned, so the directory *is* the dump.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / manifest_name).unlink(missing_ok=True)
    for name, file, array in arrays:
        save_array(directory / file, array)
        manifest.arrays[name] = ArrayInfo(
            file=file, dtype=str(array.dtype), shape=list(array.shape)
        )
    write_atomic(directory / manifest_name, manifest.to_json())
    claimed = {info.file for info in manifest.arrays.values()}
    for stale in directory.glob("*.npy"):
        if stale.name not in claimed:
            stale.unlink()
    return directory


def read_json(path: Path, kind: str) -> "dict[str, object]":
    """The JSON object in the manifest file ``path``.

    An unreadable file, text that is not JSON, or JSON that is not an
    object raises :class:`~repro.errors.SnapshotError`; ``kind`` names
    the manifest in the message.
    """
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"{kind} manifest {path} is unreadable: not valid JSON: {exc}"
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SnapshotError(
            f"{kind} manifest {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise SnapshotError(
            f"malformed {kind} manifest {path}: not a JSON object"
        )
    return payload


def read_manifest(
    path: "str | Path",
    kind: str,
    version: int,
    required: "tuple[str, ...]",
) -> "dict[str, object]":
    """The parsed JSON object of one manifest file, checked.

    The file must exist and hold a JSON object whose
    ``format_version`` is ``version`` and which has every ``required``
    field; an ``arrays`` field is parsed into :class:`ArrayInfo`
    entries.  ``kind`` names the manifest in error messages.
    """
    path = Path(path)
    if not path.is_file():
        raise SnapshotError(f"no {kind} manifest at {path}")
    payload = read_json(path, kind)
    found = payload.get("format_version")
    if found != version:
        raise SnapshotError(
            f"{kind} format version {found!r} is not supported "
            f"(this library reads version {version})"
        )
    missing = [name for name in required if name not in payload]
    if missing:
        raise SnapshotError(
            f"{kind} manifest is missing required fields: "
            f"{', '.join(missing)}"
        )
    if "arrays" in payload:
        entries = payload["arrays"]
        if not isinstance(entries, dict):
            raise SnapshotError(f"{kind} manifest 'arrays' must be an object")
        arrays = {}
        for name, info in entries.items():
            try:
                arrays[name] = ArrayInfo(
                    file=str(info["file"]),
                    dtype=str(info["dtype"]),
                    shape=[int(d) for d in info["shape"]],
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SnapshotError(
                    f"malformed {kind} array entry {name!r}: {info!r}"
                ) from exc
        payload["arrays"] = arrays
    return payload


def load_arrays(
    directory: "str | Path",
    arrays: "dict[str, ArrayInfo]",
    kind: str,
    required: "dict[str, str]",
    mmap: bool,
) -> "dict[str, np.ndarray]":
    """Load every array a manifest lists, once each, checked.

    Every name in ``required`` (name -> dtype) must be listed with that
    dtype; every listed file must exist and load with
    ``allow_pickle=False`` as exactly the dtype and shape its entry
    records.  Arrays are memory-mapped read-only when ``mmap``, else
    read into memory with the writeable flag cleared, so every returned
    array is read-only.  ``kind`` names the directory in error
    messages.
    """
    missing = sorted(set(required) - set(arrays))
    if missing:
        raise SnapshotError(
            f"{kind} manifest lists no array entry for: {', '.join(missing)}"
        )
    loaded: "dict[str, np.ndarray]" = {}
    for name, info in arrays.items():
        want = required.get(name)
        if want is not None and info.dtype != want:
            raise SnapshotError(
                f"{kind} array {name!r} must be {want}, manifest says "
                f"dtype {info.dtype}"
            )
        file = Path(directory) / info.file
        if not file.is_file():
            raise SnapshotError(f"{kind} is missing file {file}")
        try:
            array = np.load(
                file, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except (ValueError, OSError, EOFError) as exc:
            raise SnapshotError(
                f"{kind} array {info.file} is unreadable: {exc}"
            ) from exc
        if str(array.dtype) != info.dtype or list(array.shape) != info.shape:
            raise SnapshotError(
                f"{kind} array {info.file} has dtype {array.dtype} and "
                f"shape {tuple(array.shape)}, manifest says {info.dtype} "
                f"and {tuple(info.shape)}"
            )
        if not mmap:
            # Serving is strictly read-only; enforce it on owned arrays
            # the way mode="r" memory maps already do.
            array.flags.writeable = False
        loaded[name] = array
    return loaded


def _jsonable(obj: object) -> object:
    """Best-effort conversion of provenance values to JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, bool, type(None))):
        return obj
    if isinstance(obj, (int, float)):
        return obj
    item = getattr(obj, "item", None)  # numpy scalars
    if callable(item):
        return _jsonable(item())
    return str(obj)


def _encode_item(item: Item, kind: ItemKind) -> "dict[str, object]":
    """One vocabulary entry; the value keeps an explicit type tag so the
    exact Python type (bool before int!) survives the JSON round trip."""
    value = item.value
    if not isinstance(value, (str, bool, int, float)):
        # numpy scalars (np.int64 categories etc.) are not JSON
        # serializable and would otherwise fall into the str branch;
        # unwrap them to their Python equivalent first.
        unwrap = getattr(value, "item", None)
        if callable(unwrap):
            value = unwrap()
    if isinstance(value, bool):
        value_type = "bool"
    elif isinstance(value, int):
        value_type = "int"
    elif isinstance(value, float):
        value_type = "float"
        value = repr(value)   # survives nan/inf, parsed back by float()
    else:
        # Anything else serialises through its str() form — exactly
        # what _decode_item will rebuild, and always JSON-safe.
        value_type = "str"
        value = str(value)
    return {
        "attribute": item.attribute,
        "value": value,
        "value_type": value_type,
        "kind": kind.value,
    }


def _decode_item(entry: "dict[str, object]") -> "tuple[Item, ItemKind]":
    try:
        attribute = str(entry["attribute"])
        value_type = str(entry["value_type"])
        raw = entry["value"]
        kind = ItemKind(str(entry["kind"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed vocabulary entry {entry!r}") from exc
    decoder = _VALUE_DECODERS.get(value_type)
    if decoder is None:
        raise SnapshotError(
            f"unknown vocabulary value type {value_type!r} in {entry!r}"
        )
    if value_type == "bool":
        # bool(raw) would turn any non-empty corruption into True.
        if not isinstance(raw, bool):
            raise SnapshotError(
                f"vocabulary value {raw!r} is not a bool in {entry!r}"
            )
        return Item(attribute, raw), kind
    try:
        value = decoder(raw)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"vocabulary value {raw!r} is not a valid {value_type} "
            f"in {entry!r}"
        ) from exc
    return Item(attribute, value), kind


@dataclass
class SnapshotManifest:
    """Everything a reader needs to reopen and validate a snapshot."""

    format_version: int
    created_at: str
    n_cells: int
    n_items: int
    n_words: int
    column_names: "list[str]"          # stored float columns, in order
    items: "list[dict[str, object]]"   # typed vocabulary, id order
    metadata: "dict[str, object]"      # CubeMetadata fields
    arrays: "dict[str, ArrayInfo]" = field(default_factory=dict)
    #: Delta snapshots only: ``{"parent": <relative path>,
    #: "n_superseded": <parent rows replaced or deleted>}``.  A delta
    #: directory stores just its own (new/changed) cell rows plus the
    #: packed key bitmasks of the parent rows it supersedes; readers
    #: resolve the parent chain (see repro.store.snapshot).
    delta: "dict[str, object] | None" = None
    #: Row-order-independent digest of the snapshot's *resolved* cell
    #: content (for a delta: the full composed table, not just the rows
    #: stored here).  Lets a delta writer verify a caller-supplied
    #: parent cube against the on-disk parent without resolving its
    #: chain, and lets readers verify a composed chain end-to-end.
    content_digest: "str | None" = None

    # -- construction ---------------------------------------------------

    @classmethod
    def for_cube(cls, cube) -> "SnapshotManifest":
        """Describe a live cube (arrays are registered by the writer)."""
        dictionary: ItemDictionary = cube.dictionary
        table = cube.table
        metadata = {
            name: _jsonable(getattr(cube.metadata, name))
            for name in _METADATA_FIELDS
        }
        return cls(
            format_version=FORMAT_VERSION,
            created_at=datetime.now(timezone.utc).isoformat(),
            n_cells=len(table),
            n_items=len(dictionary),
            n_words=int(table.sa_masks.shape[1]),
            column_names=list(table.columns),
            items=[
                _encode_item(dictionary.item(i), dictionary.kind(i))
                for i in range(len(dictionary))
            ],
            metadata=metadata,
        )

    # -- vocabulary / provenance reconstruction ------------------------

    def dictionary(self) -> ItemDictionary:
        """Rebuild the typed item vocabulary, ids in stored order."""
        dictionary = ItemDictionary()
        for i, entry in enumerate(self.items):
            item, kind = _decode_item(entry)
            got = dictionary.add(item, kind)
            if got != i:
                raise SnapshotError(
                    f"duplicate vocabulary entry {entry!r} (id {got} != {i})"
                )
        return dictionary

    def cube_metadata(self) -> CubeMetadata:
        """Rebuild the build provenance carried by the snapshot."""
        meta = dict(self.metadata)
        try:
            return CubeMetadata(
                index_names=list(meta["index_names"]),
                min_population=int(meta["min_population"]),
                min_minority=int(meta["min_minority"]),
                n_rows=int(meta["n_rows"]),
                n_units=int(meta["n_units"]),
                mode=str(meta["mode"]),
                backend=str(meta["backend"]),
                build_seconds=float(meta.get("build_seconds", 0.0)),
                extra=dict(meta.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"manifest metadata is incomplete or malformed: {exc}"
            ) from exc

    # -- (de)serialisation ---------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def read(cls, directory: "str | Path") -> "SnapshotManifest":
        payload = read_manifest(
            Path(directory) / MANIFEST_NAME, "snapshot", FORMAT_VERSION,
            ("created_at", "n_cells", "n_items", "n_words",
             "column_names", "items", "metadata", "arrays"),
        )
        delta_raw = payload.get("delta")
        delta: "dict[str, object] | None" = None
        if delta_raw is not None:
            if not isinstance(delta_raw, dict):
                raise SnapshotError("manifest 'delta' must be an object")
            try:
                delta = {
                    "parent": str(delta_raw["parent"]),
                    "n_superseded": int(delta_raw["n_superseded"]),
                }
            except (KeyError, TypeError, ValueError) as exc:
                raise SnapshotError(
                    f"malformed delta section {delta_raw!r}"
                ) from exc
            if int(delta["n_superseded"]) < 0:
                raise SnapshotError(
                    "delta 'n_superseded' must be non-negative"
                )
        return cls(
            format_version=FORMAT_VERSION,
            created_at=str(payload["created_at"]),
            n_cells=int(payload["n_cells"]),
            n_items=int(payload["n_items"]),
            n_words=int(payload["n_words"]),
            column_names=[str(c) for c in payload["column_names"]],
            items=list(payload["items"]),
            metadata=dict(payload["metadata"]),
            arrays=payload["arrays"],
            delta=delta,
            content_digest=(
                str(payload["content_digest"])
                if payload.get("content_digest") is not None else None
            ),
        )
