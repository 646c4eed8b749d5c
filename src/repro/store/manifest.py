"""The store's file layer, and the snapshot manifest.

Every file the store writes or reads goes through the functions here.
No other store module opens, writes, renames, unlinks or fsyncs a file
itself, so the crash-point tests can fail each of those calls of a
writer in turn, and the power-loss test can replay any subset of the
ones a crash may lose:

* :func:`write_atomic` replaces a manifest so that readers see the old
  or the new file, never a torn one: a temporary file, written and
  fsynced, renamed over the manifest, then the directory fsynced.
  Every manifest the store writes — ``manifest.json``,
  ``graph_manifest.json`` and ``timeline.json`` — goes through it.
* The dump of a directory of arrays behind one manifest (cube
  snapshots, deltas, graph snapshots) takes two steps.
  :func:`plan_directory` lays the dump out in memory: all
  arrays go to one data file, ``data.bin``, each at a 64-byte aligned
  offset its :class:`ArrayInfo` entry records, and the manifest text
  is rendered, so a :class:`DumpPlan` knows the bytes the directory
  will hold before any is written.  :func:`write_directory` then
  writes it: the stale manifest and data file are unlinked first (the
  directory is fsynced then, if a manifest was there), the data file
  is written as a new inode and fsynced with its directory, and the
  manifest is written last, so a directory with a readable manifest
  always describes a complete, durable dump, and live memory-mapped
  readers of the old data file keep its bytes.
* :func:`read_manifest` is the preamble the versioned manifests share:
  the file exists, is a JSON object (:func:`read_json`, which also
  reads the advisory ``timeline.json``) of the right format version
  with the required fields, its content digest and data-file size, and
  its ``arrays`` entries parse.
* :func:`load_arrays` is the checked loader: every required array is
  listed with its dtype and nothing else is listed; every entry is
  aligned, inside the data file and clear of the entry before it; and
  the data file is opened once, checked to hold exactly the recorded
  bytes, then memory-mapped or read into one buffer and sliced.  Every
  returned array is read-only.

Every read failure raises :class:`~repro.errors.SnapshotError` with a
message naming the missing or mismatching field, entry or file, so a
corrupted or future-versioned directory fails loudly instead of serving
garbage.

The rest of the module is the cube snapshot's manifest (format version
3): the typed item vocabulary (so cell keys decode back to
``attribute=value`` pairs), the declared index names, the
:class:`~repro.cube.cube.CubeMetadata` provenance of the build, and one
:class:`ArrayInfo` per stored array.  Only a full snapshot carries the
vocabulary, as its ``items`` list.  A delta takes its parent's, since a
delta is only written over a parent with the same vocabulary, so its
manifest has no ``items``; one that has them is refused, as is a full
snapshot's without them.  Version 2 manifests, which repeat the
vocabulary in every delta, are refused like any other version.
"""

from __future__ import annotations

import json
import math
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
FORMAT_VERSION = 3

MANIFEST_NAME = "manifest.json"

#: The one data file of a snapshot directory.
DATA_NAME = "data.bin"

#: Every array starts at a multiple of this many bytes of the data file.
ALIGN = 64

_ZEROS = bytes(ALIGN)

#: Buffers one ``os.writev`` call takes at most.
_IOV_MAX = os.sysconf("SC_IOV_MAX")

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


def _write_file(path: Path, buffers: "list") -> None:
    """Write ``buffers`` to ``path`` in order, then fsync and close it.

    The buffers (bytes or 1-D ``uint8`` arrays) go out through
    ``os.writev`` without being joined, so no array is copied.
    """
    pending = [buffer for buffer in buffers if len(buffer)]
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while pending:
            written = os.writev(fd, pending[:_IOV_MAX])
            while pending and written >= len(pending[0]):
                written -= len(pending.pop(0))
            if written:
                pending[0] = pending[0][written:]
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_directory(directory: Path) -> None:
    """Make the directory entries created, renamed or unlinked in
    ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: "str | Path", text: str) -> Path:
    """Replace ``path`` with ``text``; readers see the old or the new file.

    The text goes to a temporary file in the same directory, which is
    fsynced, then renamed over ``path`` (atomic on POSIX); the
    directory is fsynced last so the rename itself is durable.  On any
    failure the temporary file is removed and ``path`` keeps its
    previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write_file(tmp, [text.encode("utf-8")])
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _fsync_directory(path.parent)
    return path


@dataclass
class ArrayInfo:
    """Where one stored array lives in the data file, and its form."""

    offset: int
    dtype: str
    shape: "list[int]"


@dataclass
class DumpPlan:
    """One directory's dump, laid out but not written.

    ``buffers`` are the data file's bytes in order (arrays and their
    padding), ``data_bytes`` their total and ``text`` the manifest that
    names them.
    """

    manifest_name: str
    text: str
    buffers: list
    data_bytes: int

    @property
    def nbytes(self) -> int:
        """The directory's own bytes once written: manifest plus data
        file, what :func:`~repro.store.snapshot.snapshot_disk_bytes`
        then reports."""
        return len(self.text.encode("utf-8")) + self.data_bytes


def plan_directory(
    manifest_name: str,
    manifest,
    arrays: "Iterable[tuple[str, np.ndarray]]",
) -> DumpPlan:
    """Lay ``arrays`` out behind ``manifest``; nothing is written.

    ``arrays`` yields ``(name, array)`` pairs of C-contiguous arrays.
    Each is recorded in ``manifest.arrays`` at its offset in
    :data:`DATA_NAME`, and the file's size in ``manifest.data_bytes``;
    the plan keeps ``manifest.to_json()`` as the text to write.
    """
    buffers = []
    offset = 0
    for name, array in arrays:
        array = np.asarray(array, dtype=array.dtype.newbyteorder("<"))
        manifest.arrays[name] = ArrayInfo(
            offset=offset, dtype=array.dtype.name, shape=list(array.shape)
        )
        pad = -array.nbytes % ALIGN
        buffers += [array.reshape(-1).view(np.uint8), _ZEROS[:pad]]
        offset += array.nbytes + pad
    manifest.data_bytes = offset
    return DumpPlan(manifest_name, manifest.to_json(), buffers, offset)


def write_directory(path: "str | Path", plan: DumpPlan) -> Path:
    """Write a planned dump into the directory ``path``.

    The data file gets the plan's buffers and the manifest its text,
    through :func:`write_atomic`.  The order makes a crash, power loss
    included, safe at any point:

    1. The stale manifest and data file are unlinked.  If a manifest
       was there, the directory is fsynced, so the unlink is durable
       before any new byte is written: otherwise a power loss could
       keep the old manifest and the new data file, and a memory-mapped
       open checks no digest.
    2. The data file is written as a new inode (live memory-mapped
       readers keep the old one), fsynced and closed, and the
       directory fsynced, so its bytes and its entry are durable
       before a manifest can name them.
    3. The manifest is written last.

    A crash therefore leaves either a manifest-less directory, which
    every reader rejects, or a complete dump whose data reached the
    disk before its manifest did: never a manifest over other bytes.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    try:
        (directory / plan.manifest_name).unlink()
        replaced = True
    except FileNotFoundError:
        replaced = False
    data = directory / DATA_NAME
    data.unlink(missing_ok=True)
    if replaced:
        _fsync_directory(directory)
    _write_file(data, plan.buffers)
    _fsync_directory(directory)
    write_atomic(directory / plan.manifest_name, plan.text)
    return directory


def read_json(path: Path, kind: str) -> "dict[str, object]":
    """The JSON object in the manifest file ``path``.

    An unreadable file, text that is not JSON, or JSON that is not an
    object raises :class:`~repro.errors.SnapshotError`; ``kind`` names
    the manifest in the message.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
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
    field plus the fields every dump records: ``arrays`` (parsed into
    :class:`ArrayInfo` entries), ``data_bytes`` (an int) and
    ``content_digest`` (a string).  ``kind`` names the manifest in
    error messages.
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
    missing = [
        name
        for name in (*required, "arrays", "data_bytes", "content_digest")
        if name not in payload
    ]
    if missing:
        raise SnapshotError(
            f"{kind} manifest is missing required fields: "
            f"{', '.join(missing)}"
        )
    if not isinstance(payload["content_digest"], str):
        raise SnapshotError(
            f"{kind} manifest 'content_digest' must be a string"
        )
    if type(payload["data_bytes"]) is not int or payload["data_bytes"] < 0:
        raise SnapshotError(
            f"{kind} manifest 'data_bytes' must be a non-negative integer"
        )
    entries = payload["arrays"]
    if not isinstance(entries, dict):
        raise SnapshotError(f"{kind} manifest 'arrays' must be an object")
    arrays = {}
    for name, info in entries.items():
        try:
            arrays[name] = ArrayInfo(
                offset=int(info["offset"]),
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
    manifest,
    kind: str,
    required: "dict[str, str]",
    mmap: bool,
) -> "dict[str, np.ndarray]":
    """Load every array ``manifest`` lists from its one data file, checked.

    Every name in ``required`` (name -> dtype) must be listed with that
    dtype, and no other name may be listed.  In offset order, every
    entry must start at a multiple of :data:`ALIGN`, at or after the end
    of the entry before it, and end inside ``manifest.data_bytes``.
    The data file is then opened once and must hold exactly
    ``manifest.data_bytes`` bytes — checked before any slice, since a
    mapped file shorter than its entries would fault on first touch.
    With ``mmap`` it is memory-mapped read-only (one ``np.memmap``, so
    every array is a read-only ``np.memmap``); otherwise, or when it is
    empty, it is read into one buffer whose writeable flag is cleared.
    Each array is a slice of that map or buffer.  ``kind`` names the
    directory in error messages.
    """
    arrays = manifest.arrays
    missing = sorted(set(required) - set(arrays))
    if missing:
        raise SnapshotError(
            f"{kind} manifest lists no array entry for: {', '.join(missing)}"
        )
    unknown = sorted(set(arrays) - set(required))
    if unknown:
        raise SnapshotError(
            f"{kind} manifest lists unknown arrays: {', '.join(unknown)}"
        )
    size = manifest.data_bytes
    spans = {}
    end = 0
    for name, info in sorted(arrays.items(), key=lambda item: item[1].offset):
        want = required[name]
        if info.dtype != want:
            raise SnapshotError(
                f"{kind} array {name!r} must be {want}, manifest says "
                f"dtype {info.dtype}"
            )
        if min(info.shape, default=0) < 0:
            raise SnapshotError(
                f"{kind} array {name!r} has negative shape {tuple(info.shape)}"
            )
        if info.offset % ALIGN:
            raise SnapshotError(
                f"{kind} array {name!r} offset {info.offset} is not "
                f"{ALIGN}-byte aligned"
            )
        if info.offset < end:
            raise SnapshotError(
                f"{kind} array {name!r} at offset {info.offset} overlaps "
                f"the array before it, which ends at byte {end}"
            )
        end = info.offset + math.prod(info.shape) * np.dtype(want).itemsize
        if end > size:
            raise SnapshotError(
                f"{kind} array {name!r} ends at byte {end}, past the "
                f"{size} bytes of its data file"
            )
        spans[name] = (info.offset, end)
    file = Path(directory) / DATA_NAME
    try:
        handle = open(file, "rb")
    except FileNotFoundError as exc:
        raise SnapshotError(f"{kind} is missing file {file}") from exc
    except OSError as exc:
        raise SnapshotError(
            f"{kind} data file {file} is unreadable: {exc}"
        ) from exc
    with handle:
        found = os.fstat(handle.fileno()).st_size
        if found != size:
            raise SnapshotError(
                f"{kind} data file {file} holds {found} bytes, its "
                f"manifest records {size}"
            )
        if mmap and size:
            data = np.memmap(handle, dtype=np.uint8, mode="r")
        else:
            data = np.empty(size, dtype=np.uint8)
            if handle.readinto(data) != size:
                raise SnapshotError(
                    f"{kind} data file {file} changed while it was read"
                )
            data.flags.writeable = False
    return {
        name: data[start:stop].view(
            np.dtype(required[name]).newbyteorder("<")
        ).reshape(arrays[name].shape)
        for name, (start, stop) in spans.items()
    }


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


def vocabulary_entries(
    dictionary: ItemDictionary,
) -> "list[dict[str, object]]":
    """A vocabulary as a manifest's ``items`` list records it, id order.

    Two vocabularies with equal entries reopen as the same one, which
    is what a delta's writer checks before leaving them out.
    """
    return [
        _encode_item(dictionary.item(i), dictionary.kind(i))
        for i in range(len(dictionary))
    ]


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
    #: The typed vocabulary in id order; None for a delta, which takes
    #: its parent's.
    items: "list[dict[str, object]] | None"
    metadata: "dict[str, object]"      # CubeMetadata fields
    #: Row-order-independent digest of the snapshot's *resolved* cell
    #: content (for a delta: the full composed table, not just the rows
    #: stored here).  Lets a delta writer verify a caller-supplied
    #: parent cube against the on-disk parent without resolving its
    #: chain, and lets readers verify a composed chain end-to-end.
    content_digest: str
    arrays: "dict[str, ArrayInfo]" = field(default_factory=dict)
    #: Delta snapshots only: ``{"parent": <relative path>,
    #: "n_superseded": <parent rows replaced or deleted>}``.  A delta
    #: directory stores just its own (new/changed) cell rows plus the
    #: packed key bitmasks of the parent rows it supersedes; readers
    #: resolve the parent chain (see repro.store.snapshot).
    delta: "dict[str, object] | None" = None
    #: Byte size of the directory's data file.
    data_bytes: int = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def for_cube(
        cls, cube, content_digest: str, delta: "dict[str, object] | None"
    ) -> "SnapshotManifest":
        """Describe a live cube whose table digests to ``content_digest``
        (arrays are registered by the writer).

        A full snapshot (``delta`` None) records the vocabulary; a delta
        section leaves it out, since the delta takes its parent's.
        """
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
            items=None if delta is not None else vocabulary_entries(
                dictionary
            ),
            metadata=metadata,
            content_digest=content_digest,
            delta=delta,
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
        payload = asdict(self)
        if self.items is None:
            del payload["items"]
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def read(cls, directory: "str | Path") -> "SnapshotManifest":
        payload = read_manifest(
            Path(directory) / MANIFEST_NAME, "snapshot", FORMAT_VERSION,
            ("created_at", "n_cells", "n_items", "n_words",
             "column_names", "metadata"),
        )
        delta_raw = payload.get("delta")
        delta: "dict[str, object] | None" = None
        items = payload.get("items")
        if delta_raw is not None:
            if "items" in payload:
                raise SnapshotError(
                    "delta manifest carries an items list; a delta takes "
                    "its parent's vocabulary"
                )
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
            items=None if items is None else list(items),
            metadata=dict(payload["metadata"]),
            arrays=payload["arrays"],
            delta=delta,
            content_digest=payload["content_digest"],
            data_bytes=payload["data_bytes"],
        )
