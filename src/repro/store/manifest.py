"""The snapshot manifest: schema, vocabulary and provenance as JSON.

A snapshot directory is self-describing: everything needed to reopen a
cube without the original process — the format version, the typed item
vocabulary (so cell keys decode back to ``attribute=value`` pairs), the
declared index names, the :class:`~repro.cube.cube.CubeMetadata`
provenance of the build, and one entry per stored array recording its
file name, dtype and shape (validated on open).

Every malformed-manifest condition raises
:class:`~repro.errors.SnapshotError` with a message naming the missing
or mismatching field, so a corrupted or future-versioned snapshot fails
loudly instead of serving garbage.  Every manifest the store writes —
this one, ``timeline.json``, ``shards.json`` and ``graph_manifest.json``
— goes through :func:`write_atomic`, so a crash mid-write never leaves
a torn file behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

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
class ArrayInfo:
    """Where one column array lives and what it must look like."""

    file: str
    dtype: str
    shape: "list[int]"


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
        payload = asdict(self)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SnapshotManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SnapshotError("manifest must be a JSON object")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format version {version!r} is not supported "
                f"(this library reads version {FORMAT_VERSION})"
            )
        required = (
            "created_at", "n_cells", "n_items", "n_words",
            "column_names", "items", "metadata", "arrays",
        )
        missing = [name for name in required if name not in payload]
        if missing:
            raise SnapshotError(
                f"manifest is missing required fields: {', '.join(missing)}"
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
        arrays_raw = payload["arrays"]
        if not isinstance(arrays_raw, dict):
            raise SnapshotError("manifest 'arrays' must be an object")
        arrays = {}
        for name, info in arrays_raw.items():
            try:
                arrays[name] = ArrayInfo(
                    file=str(info["file"]),
                    dtype=str(info["dtype"]),
                    shape=[int(d) for d in info["shape"]],
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SnapshotError(
                    f"malformed array entry {name!r}: {info!r}"
                ) from exc
        return cls(
            format_version=int(version),
            created_at=str(payload["created_at"]),
            n_cells=int(payload["n_cells"]),
            n_items=int(payload["n_items"]),
            n_words=int(payload["n_words"]),
            column_names=[str(c) for c in payload["column_names"]],
            items=list(payload["items"]),
            metadata=dict(payload["metadata"]),
            arrays=arrays,
            delta=delta,
            content_digest=(
                str(payload["content_digest"])
                if payload.get("content_digest") is not None else None
            ),
        )

    def write(self, directory: "str | Path") -> Path:
        return write_atomic(Path(directory) / MANIFEST_NAME, self.to_json())

    @classmethod
    def read(cls, directory: "str | Path") -> "SnapshotManifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.is_file():
            raise SnapshotError(f"no snapshot manifest at {path}")
        return cls.from_json(path.read_text())
