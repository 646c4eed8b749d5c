"""Every disk state a power loss may leave behind a store writer.

A recording shim over the file layer (:class:`DiskLog`) runs a writer
for real and logs each file it creates, each write, fsync, rename and
unlink, and each directory it makes.  :func:`crash_states` then
enumerates every disk tree a crash at any point of that log may leave,
under this model of a disk that loses power:

* data a file's fsync covered survives;
* data written since the file's last fsync may be lost: each such
  write call survives whole, torn (its first half) or not at all;
* a new, renamed or unlinked directory entry survives only once its
  directory is fsynced; before that, any subset of the entry changes
  made in a directory survives, each one whole (a rename moves its
  inode or does nothing);
* nothing is reordered across a crash point: events after it never
  happened.

In every state a reader must see the old content, the new content or a
:class:`~repro.errors.SnapshotError`; content counts as old or new only
when the manifest and the arrays both are, so an old manifest naming
new bytes is a failure even where the loader would accept it.  The
store's writer (:func:`~repro.store.manifest.write_directory`) rules
that state out by fsyncing the directory right after it unlinks a
stale manifest, before any new byte is written;
``test_the_model_finds_an_old_manifest_over_new_bytes`` drops that
fsync and finds the state.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro.store.manifest as manifest_module
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import SegregationCube
from repro.cube.table import CellTable, TableArrays
from repro.data.synthetic import random_bipartite_world, random_final_table
from repro.errors import SnapshotError
from repro.graph.bipartite import project_onto_groups
from repro.graph.components import connected_components
from repro.store import (
    SnapshotManifest,
    dump_into_timeline,
    dump_snapshot,
    open_snapshot,
    read_timeline_manifest,
    table_digest,
    timeline_dates,
)
from repro.store.graph import (
    GraphArtifact,
    GraphManifest,
    dump_graph_snapshot,
    graph_digest,
    open_graph_snapshot,
)
from repro.store.manifest import ALIGN, DATA_NAME
from tests.datafile import read_payload

#: Directory-entry events, with the directory they change at index 1.
_ENTRY_EVENTS = ("mkdir", "create", "unlink", "rename")
_DIR = "dir"


class DiskLog:
    """Run file-layer calls for real and log what they did under ``root``.

    While :meth:`record` runs a writer, ``os.open`` (of a new file or of
    a directory), ``os.writev``, ``os.fsync``, ``os.close``,
    ``os.replace``, ``os.unlink`` and ``os.mkdir`` pass through to the
    real calls; those under ``root`` append events to :attr:`events`,
    with paths relative to ``root`` and files named by inode numbers the
    log assigns:

    * ``("mkdir", parent, name)``, ``("create", parent, name, ino)``,
      ``("unlink", parent, name)``, ``("rename", parent, old, new,
      ino)``: changes to the entries of the directory ``parent``;
    * ``("write", ino, offset, data)`` and ``("fsync", ino)``;
    * ``("fsync_dir", directory)``.

    The tree under ``root`` before the writer runs is the initial
    state, taken as durable.
    """

    def __init__(self, root: Path):
        self.root = os.path.realpath(root)
        self.initial_dirs = {""}
        self.initial: "dict[str, int]" = {}
        self.contents: "dict[int, bytes]" = {}
        for parent, dirnames, filenames in os.walk(self.root):
            base = os.path.relpath(parent, self.root)
            base = "" if base == "." else base
            self.initial_dirs.update(os.path.join(base, d) for d in dirnames)
            for name in filenames:
                ino = len(self.contents)
                self.contents[ino] = Path(parent, name).read_bytes()
                self.initial[os.path.join(base, name)] = ino
        #: The current name of every file under ``root``.
        self.names = dict(self.initial)
        self.events: "list[tuple]" = []
        self._fds: "dict[int, list]" = {}

    def _rel(self, path) -> "str | None":
        rel = os.path.relpath(os.path.realpath(os.fspath(path)), self.root)
        if rel == ".":
            return ""
        return None if rel.startswith("..") else rel

    def record(self, write) -> None:
        """Run ``write()`` with the file-system calls logged."""
        real = {name: getattr(os, name) for name in (
            "open", "writev", "fsync", "close", "replace", "unlink", "mkdir")}

        def open_(path, flags, mode=0o777, **kwargs):
            rel = self._rel(path)
            existed = os.path.lexists(path)
            fd = real["open"](path, flags, mode, **kwargs)
            if rel is None:
                return fd
            if flags & os.O_CREAT:
                assert not existed, f"{rel} is rewritten in place"
                ino = len(self.contents)
                self.contents[ino] = b""
                self.names[rel] = ino
                self.events.append(("create", *os.path.split(rel), ino))
                self._fds[fd] = ["file", ino, 0]
            elif os.path.isdir(path):
                self._fds[fd] = ["dir", rel]
            return fd

        def writev(fd, buffers):
            written = real["writev"](fd, buffers)
            entry = self._fds.get(fd)
            if entry is not None:
                data = b"".join(bytes(buffer) for buffer in buffers)
                self.events.append(
                    ("write", entry[1], entry[2], data[:written]))
                entry[2] += written
            return written

        def fsync(fd):
            real["fsync"](fd)
            entry = self._fds.get(fd)
            if entry is not None:
                kind = "fsync" if entry[0] == "file" else "fsync_dir"
                self.events.append((kind, entry[1]))

        def close(fd):
            self._fds.pop(fd, None)
            real["close"](fd)

        def replace(src, dst, **kwargs):
            real["replace"](src, dst, **kwargs)
            old, new = self._rel(src), self._rel(dst)
            assert os.path.dirname(old) == os.path.dirname(new)
            ino = self.names.pop(old)
            self.names[new] = ino
            self.events.append(("rename", os.path.dirname(old),
                                os.path.basename(old),
                                os.path.basename(new), ino))

        def unlink(path, **kwargs):
            real["unlink"](path, **kwargs)
            rel = self._rel(path)
            if rel is not None:
                del self.names[rel]
                self.events.append(("unlink", *os.path.split(rel)))

        def mkdir(path, mode=0o777, **kwargs):
            real["mkdir"](path, mode, **kwargs)
            rel = self._rel(path)
            if rel is not None:
                self.events.append(("mkdir", *os.path.split(rel)))

        shims = {"open": open_, "writev": writev, "fsync": fsync,
                 "close": close, "replace": replace, "unlink": unlink,
                 "mkdir": mkdir}
        with pytest.MonkeyPatch.context() as patch:
            for name, shim in shims.items():
                patch.setattr(os, name, shim)
            write()

    def written_files(self) -> "dict[str, int]":
        """``{path: bytes written}`` of every file the writer created,
        under the name it ends up with."""
        sizes: "dict[int, int]" = {}
        for event in self.events:
            if event[0] == "write":
                sizes[event[1]] = sizes.get(event[1], 0) + len(event[3])
        return {
            path: sizes.get(ino, 0) for path, ino in self.names.items()
            if path not in self.initial or self.initial[path] != ino
        }


def _tree(log: DiskLog, survivors: "list[tuple]"):
    """The files and directories a crash leaves when ``survivors`` (in
    log order) are the events that reached the disk."""
    entries: "dict[str, object]" = dict(log.initial)
    entries.update({d: _DIR for d in log.initial_dirs})
    contents: "dict[int, bytearray]" = {}
    for event in survivors:
        kind = event[0]
        if kind == "mkdir":
            entries[os.path.join(event[1], event[2])] = _DIR
        elif kind == "create":
            entries[os.path.join(event[1], event[2])] = event[3]
        elif kind == "unlink":
            entries.pop(os.path.join(event[1], event[2]), None)
        elif kind == "rename":
            entries.pop(os.path.join(event[1], event[2]), None)
            entries[os.path.join(event[1], event[3])] = event[4]
        elif kind == "write":
            _, ino, offset, data = event
            content = contents.setdefault(
                ino, bytearray(log.contents.get(ino, b"")))
            content.extend(bytes(max(0, offset + len(data) - len(content))))
            content[offset:offset + len(data)] = data

    def present(path):
        parent = os.path.dirname(path)
        return parent == "" or (entries.get(parent) is _DIR and
                                present(parent))

    dirs = sorted(
        p for p, e in entries.items() if p and e is _DIR and present(p)
    )
    files = sorted(
        (p, bytes(contents.get(e, log.contents.get(e, b""))))
        for p, e in entries.items() if e is not _DIR and present(p)
    )
    return tuple(dirs), tuple(files)


def crash_states(log: DiskLog):
    """Every distinct tree a crash after any prefix of the log leaves."""
    seen = set()
    events = log.events
    for crash in range(len(events) + 1):
        prefix = events[:crash]
        synced: "dict[object, int]" = {}
        for index, event in enumerate(prefix):
            if event[0] in ("fsync", "fsync_dir"):
                synced[event[0], event[1]] = index
        # Each event's possible fates: what reaches the disk, or None.
        fates = []
        for index, event in enumerate(prefix):
            if event[0] == "write":
                durable = index < synced.get(("fsync", event[1]), -1)
                torn = (*event[:3], event[3][:len(event[3]) // 2])
                lossy = (None, torn, event)
            elif event[0] in _ENTRY_EVENTS:
                durable = index < synced.get(("fsync_dir", event[1]), -1)
                lossy = (None, event)
            else:
                continue
            fates.append((event,) if durable else lossy)
        for survivors in itertools.product(*fates):
            tree = _tree(log, [e for e in survivors if e is not None])
            key = hashlib.sha256(repr(tree).encode()).digest()
            if key not in seen:
                seen.add(key)
                yield tree


def _materialize(tree, root: Path) -> Path:
    dirs, files = tree
    root.mkdir()
    for path in dirs:
        (root / path).mkdir()
    for path, data in files:
        (root / path).write_bytes(data)
    return root


def _outcomes(log: DiskLog, tmp_path: Path, read) -> "dict[str, int]":
    """How many crash states ``read(root)`` reads as each outcome."""
    counts: "dict[str, int]" = {}
    for index, tree in enumerate(crash_states(log)):
        root = _materialize(tree, tmp_path / f"state-{index}")
        try:
            outcome = read(root)
        except SnapshotError:
            outcome = "error"
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


@pytest.fixture(scope="module")
def built():
    # ~2k cells: a delta of a few rows stays far below half its root's
    # bytes, so the publish rule writes it as a delta.
    table, schema = random_final_table(
        3000, 12, sa_attributes={"g": 2, "eth": 4},
        ca_attributes={"r": 3, "s": 4}, multi_valued_ca={"tag": 3},
        seed=3, skew=0.4,
    )
    return SegregationDataCubeBuilder(
        min_population=30, min_minority=8).build(table, schema)


def _changed(cube: SegregationCube, rows) -> SegregationCube:
    """``cube`` with every index value of ``rows`` moved by one."""
    table = cube.table
    columns = {}
    for name, column in table.columns.items():
        columns[name] = np.array(column, copy=True)
        columns[name][rows] += 1.0
    return SegregationCube(
        CellTable.from_arrays(TableArrays(
            population=table.population, minority=table.minority,
            n_units=table.n_units, sa_masks=table.sa_masks,
            ca_masks=table.ca_masks, columns=columns,
        )),
        cube.dictionary,
        cube.metadata,
    )


def _cube_reader(old, new):
    """Read a snapshot directory as "old", "new" or "mixed"."""
    names = {table_digest(old.table): "old", table_digest(new.table): "new"}

    def read(path):
        recorded = SnapshotManifest.read(path).content_digest
        content = table_digest(open_snapshot(path, mmap=True).table)
        if content != recorded:
            return "mixed"
        return names.get(content, "other")

    return read


def test_cube_redump_survives_power_loss(built, tmp_path):
    new = _changed(built, slice(None))
    path = dump_snapshot(built, tmp_path / "snap")
    log = DiskLog(path)
    log.record(lambda: dump_snapshot(new, path))
    outcomes = _outcomes(log, tmp_path, _cube_reader(built, new))
    assert set(outcomes) == {"old", "new", "error"}, outcomes


def test_the_model_finds_an_old_manifest_over_new_bytes(
    built, tmp_path, monkeypatch
):
    """Without the fsync after the stale manifest's unlink, a power loss
    may keep that unlink's undoing together with the new data file."""
    fsync_directory = manifest_module._fsync_directory
    calls = []

    def skip_first(directory):
        calls.append(directory)
        if len(calls) > 1:
            fsync_directory(directory)

    new = _changed(built, slice(None))
    path = dump_snapshot(built, tmp_path / "snap")
    monkeypatch.setattr(manifest_module, "_fsync_directory", skip_first)
    log = DiskLog(path)
    log.record(lambda: dump_snapshot(new, path))
    outcomes = _outcomes(log, tmp_path, _cube_reader(built, new))
    assert "mixed" in outcomes, outcomes


def _publish_outcomes(cubes, tmp_path, chain_length):
    """Publish ``cubes[2]`` onto a timeline holding ``cubes[:2]`` under
    :class:`DiskLog`, and read every state a power loss may leave."""
    root = tmp_path / "timeline"
    dump_into_timeline(root, 0, cubes[0])
    dump_into_timeline(root, 1, cubes[1], parent_date=0, parent=cubes[0])
    log = DiskLog(root)
    log.record(lambda: dump_into_timeline(
        root, 2, cubes[2], parent_date=1, parent=cubes[1]))
    assert read_timeline_manifest(root)["dates"]["2"]["chain_length"] \
        == chain_length
    digests = [table_digest(cube.table) for cube in cubes]

    def read(state):
        read_timeline_manifest(state)
        dates = timeline_dates(state)
        latest = state / str(dates[-1])
        recorded = SnapshotManifest.read(latest).content_digest
        content = table_digest(open_snapshot(latest).table)
        if content != recorded or content != digests[dates[-1]]:
            return "mixed"
        return {(0, 1): "old", (0, 1, 2): "new"}.get(tuple(dates), "other")

    return _outcomes(log, tmp_path, read)


def test_delta_publish_survives_power_loss(built, tmp_path):
    """A delta publish leaves the timeline at its old dates or with the
    new one complete: never a date a restart cannot open."""
    cubes = [built, _changed(built, [0, 1, 2]), _changed(built, [3, 4])]
    outcomes = _publish_outcomes(cubes, tmp_path, chain_length=2)
    assert set(outcomes) == {"old", "new"}, outcomes


def test_byte_triggered_publish_survives_power_loss(built, tmp_path):
    """A date whose delta would be too big is written once, full: a
    power loss leaves the old dates or the new one complete."""
    cubes = [built, _changed(built, [0, 1, 2]), _changed(built, slice(None))]
    outcomes = _publish_outcomes(cubes, tmp_path, chain_length=0)
    assert set(outcomes) == {"old", "new"}, outcomes


def _artifact(n_left, n_right, seed):
    bipartite, _ = random_bipartite_world(n_left, n_right, seed=seed)
    projection = project_onto_groups(bipartite)
    return GraphArtifact.from_result(
        projection, connected_components(projection.graph))


def test_graph_redump_survives_power_loss(tmp_path):
    old, new = _artifact(300, 40, 5), _artifact(200, 30, 6)
    path = dump_graph_snapshot(old, tmp_path / "graph")
    recorded = GraphManifest.read(path).content_digest
    log = DiskLog(path)
    log.record(lambda: dump_graph_snapshot(new, path))
    names = {recorded: "old", GraphManifest.read(path).content_digest: "new"}

    def read(state):
        snapshot = open_graph_snapshot(state, mmap=True)
        content = graph_digest({
            name: snapshot.array(name) for name in (
                "edges_u", "edges_v", "edges_w", "labels", "isolated",
                "skipped_hubs")
        })
        if content != snapshot.manifest.content_digest:
            return "mixed"
        return names.get(content, "other")

    outcomes = _outcomes(log, tmp_path, read)
    assert set(outcomes) == {"old", "new", "error"}, outcomes


def _logged_publish(built, changed, root):
    """A :class:`DiskLog` of publishing ``changed`` as date 1 onto
    ``built`` at date 0."""
    dump_into_timeline(root, 0, built)
    log = DiskLog(root)
    log.record(lambda: dump_into_timeline(
        root, 1, changed, parent_date=0, parent=built))
    return log


def _fsyncs(log: DiskLog) -> "tuple[int, int]":
    """File and directory fsyncs in the log."""
    kinds = [event[0] for event in log.events]
    return kinds.count("fsync"), kinds.count("fsync_dir")


def test_delta_publish_writes_three_files(built, tmp_path):
    """A delta publish writes its data file, its manifest and
    ``timeline.json``, nothing else; the data file holds the arrays'
    bytes plus less than 64 bytes of padding after each, and the
    manifest carries no vocabulary (the delta takes its parent's)."""
    root = tmp_path / "timeline"
    log = _logged_publish(built, _changed(built, [0, 1, 2]), root)
    written = log.written_files()
    assert sorted(written) == [
        os.path.join("1", DATA_NAME), os.path.join("1", "manifest.json"),
        "timeline.json",
    ]
    manifest = SnapshotManifest.read(root / "1")
    assert manifest.delta is not None
    assert manifest.items is None
    assert "items" not in read_payload(root / "1")
    assert written[os.path.join("1", DATA_NAME)] == manifest.data_bytes
    end = 0
    for info in sorted(manifest.arrays.values(), key=lambda i: i.offset):
        assert 0 <= info.offset - end < ALIGN
        end = info.offset + int(np.prod(info.shape)) * np.dtype(
            info.dtype).itemsize
    assert 0 <= manifest.data_bytes - end < ALIGN
    # The delta's manifest is its root's less at least the vocabulary
    # (the root's items list, even written without indentation).
    manifest_bytes = written[os.path.join("1", "manifest.json")]
    root_manifest = (root / "0" / "manifest.json").stat().st_size
    items = json.dumps(read_payload(root / "0")["items"])
    assert manifest_bytes < root_manifest - len(items)
    own = read_timeline_manifest(root)["dates"]["1"]["own_bytes"]
    assert own == manifest_bytes + manifest.data_bytes
    assert _fsyncs(log) == (3, 3)


def test_byte_triggered_publish_writes_the_full_snapshot_once(
    built, tmp_path
):
    """A date whose delta would reach half its root's bytes is written
    as a full snapshot, once: its two files and ``timeline.json``, with
    the fsyncs of a delta publish and no byte of the delta."""
    root = tmp_path / "timeline"
    log = _logged_publish(built, _changed(built, slice(None)), root)
    assert read_timeline_manifest(root)["dates"]["1"]["chain_length"] == 0
    written = log.written_files()
    assert sorted(written) == [
        os.path.join("1", DATA_NAME), os.path.join("1", "manifest.json"),
        "timeline.json",
    ]
    manifest = SnapshotManifest.read(root / "1")
    assert manifest.delta is None and manifest.items is not None
    bytes_written = sum(
        len(event[3]) for event in log.events if event[0] == "write"
    )
    own = (root / "1" / DATA_NAME).stat().st_size + (
        root / "1" / "manifest.json").stat().st_size
    assert bytes_written == own + written["timeline.json"]
    assert read_timeline_manifest(root)["dates"]["1"]["own_bytes"] == own
    assert _fsyncs(log) == (3, 3)
