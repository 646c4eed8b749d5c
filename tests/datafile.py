"""Read and rewrite the arrays of a store directory's data file.

A cube or graph snapshot directory holds one manifest and one data
file, ``data.bin``; each array is a region of the data file that its
manifest entry (``{"offset", "dtype", "shape"}``) describes.  The
corruption tests change regions, entries or the file itself through
these helpers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.store.manifest import ALIGN, DATA_NAME, MANIFEST_NAME


def read_payload(directory, manifest_name=MANIFEST_NAME) -> dict:
    return json.loads((Path(directory) / manifest_name).read_text())


def edit_manifest(directory, edit, manifest_name=MANIFEST_NAME) -> None:
    """Apply ``edit`` to the manifest's JSON object and write it back."""
    payload = read_payload(directory, manifest_name)
    edit(payload)
    (Path(directory) / manifest_name).write_text(json.dumps(payload))


def read_array(directory, name, manifest_name=MANIFEST_NAME) -> np.ndarray:
    """A writable copy of the array ``name``, read through its entry."""
    entry = read_payload(directory, manifest_name)["arrays"][name]
    dtype = np.dtype(entry["dtype"])
    count = int(np.prod(entry["shape"], dtype=np.int64))
    data = (Path(directory) / DATA_NAME).read_bytes()
    return np.frombuffer(
        data, dtype=dtype, count=count, offset=entry["offset"]
    ).reshape(entry["shape"]).copy()


def write_region(directory, name, change, manifest_name=MANIFEST_NAME):
    """Write ``change(array)`` over the region of ``name``, in place.

    The entry stays as it is, so the new array must have the old one's
    byte size.
    """
    entry = read_payload(directory, manifest_name)["arrays"][name]
    array = np.ascontiguousarray(change(read_array(directory, name,
                                                   manifest_name)))
    size = int(np.prod(entry["shape"], dtype=np.int64)) * np.dtype(
        entry["dtype"]).itemsize
    assert array.nbytes == size, (name, array.nbytes, size)
    with open(Path(directory) / DATA_NAME, "r+b") as handle:
        handle.seek(entry["offset"])
        handle.write(array.tobytes())


def relayout(directory, name, change, record, manifest_name=MANIFEST_NAME):
    """Rewrite the data file with ``change(array)`` in place of ``name``.

    Every array keeps its place in the file's order, at the next
    aligned offset.  With ``record`` the manifest records the new
    entries and size, so only checks across arrays (widths, row counts)
    can catch the change; without, the manifest describes the old file.
    """
    payload = read_payload(directory, manifest_name)
    arrays = {
        key: read_array(directory, key, manifest_name)
        for key in payload["arrays"]
    }
    arrays[name] = np.ascontiguousarray(change(arrays[name]))
    data = bytearray()
    for key in sorted(arrays, key=lambda k: payload["arrays"][k]["offset"]):
        payload["arrays"][key] = {
            "offset": len(data),
            "dtype": arrays[key].dtype.name,
            "shape": list(arrays[key].shape),
        }
        data += arrays[key].tobytes()
        data += bytes(-len(data) % ALIGN)
    (Path(directory) / DATA_NAME).write_bytes(bytes(data))
    if record:
        payload["data_bytes"] = len(data)
        (Path(directory) / manifest_name).write_text(json.dumps(payload))


def truncate(directory, size) -> None:
    """Cut the data file down to its first ``size`` bytes."""
    file = Path(directory) / DATA_NAME
    file.write_bytes(file.read_bytes()[:size])


def _misalign(payload, name):
    payload["arrays"][name]["offset"] += 8


def _past_end(payload, name):
    payload["arrays"][name]["offset"] = payload["data_bytes"]


def _overlap(payload, name):
    entries = sorted(payload["arrays"].values(), key=lambda e: e["offset"])
    entries[1]["offset"] = entries[0]["offset"]


def _unknown(payload, name):
    payload["arrays"]["extra"] = {"offset": 0, "dtype": "int64", "shape": [0]}


def _extend(directory):
    with open(Path(directory) / DATA_NAME, "ab") as handle:
        handle.write(bytes(ALIGN))


def _edit(change):
    return lambda directory, manifest_name, name: edit_manifest(
        directory, lambda payload: change(payload, name), manifest_name
    )


_SIZE = "holds .* bytes, its manifest records"

#: Damage to a data file or its entries that the loader must refuse
#: before it slices: ``case -> (damage(directory, manifest_name, name),
#: pattern of the SnapshotError message)``, where ``name`` is a
#: non-empty array the damage may pick.
LAYOUT_CORRUPTIONS = {
    "misaligned_offset": (_edit(_misalign), "not 64-byte aligned"),
    "entry_past_end": (_edit(_past_end), "past the .* bytes of its data"),
    "overlapping_entries": (_edit(_overlap), "overlaps the array before"),
    "unknown_entry": (_edit(_unknown), "unknown arrays: extra"),
    "short_data_file": (
        lambda d, m, name: truncate(d, read_payload(d, m)["data_bytes"] - 8),
        _SIZE,
    ),
    "long_data_file": (lambda d, m, name: _extend(d), _SIZE),
}
