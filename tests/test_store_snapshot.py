"""Tests of the snapshot store: dump → validate → open round trips.

Pins the PR 4 contract: for any built cube,
``open_snapshot(dump_snapshot(cube))`` yields identical cells
(``check_same_cells`` at atol=0) and identical ``top``/``slice``/pivot
outputs, both in memory and memory-mapped; every corruption mode
surfaces as a clear :class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cell import CellStats
from repro.cube.cube import CubeMetadata, SegregationCube, check_same_cells
from repro.cube.coordinates import make_key
from repro.cube.table import CellTable, TableArrays, packed_rows
from repro.data.synthetic import random_final_table
from repro.errors import SnapshotError
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.report.pivot import pivot
from repro.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    dump_snapshot,
    open_snapshot,
    table_digest,
    validate_snapshot,
)
from repro.store.snapshot import _find_rows


@pytest.fixture(scope="module")
def built(schools):
    table, schema = schools
    return SegregationDataCubeBuilder(min_population=10, min_minority=3).build(table, schema)


def _metadata(index_names, mode="all"):
    return CubeMetadata(
        index_names=index_names, min_population=1, min_minority=1,
        n_rows=10, n_units=2, mode=mode, backend="test",
    )


def _tiny_dictionary():
    dictionary = ItemDictionary()
    dictionary.add(Item("sex", "F"), ItemKind.SA)
    dictionary.add(Item("region", "north"), ItemKind.CA)
    dictionary.add(Item("n_boards", 2), ItemKind.CA)       # int value
    dictionary.add(Item("active", True), ItemKind.CA)      # bool value
    dictionary.add(Item("share", 0.25), ItemKind.CA)       # float value
    return dictionary


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_cells_and_queries_identical(self, built, tmp_path, mmap):
        dump_snapshot(built, tmp_path / "snap")
        reopened = open_snapshot(tmp_path / "snap", mmap=mmap)
        assert check_same_cells(built, reopened, atol=0.0) == []
        assert list(reopened.keys()) == list(built.keys())
        assert (
            [s.key for s in reopened.top("D", k=10, min_minority=5)]
            == [s.key for s in built.top("D", k=10, min_minority=5)]
        )
        want = {"city": "Rivertown"}
        assert (
            [s.key for s in reopened.slice(ca=want)]
            == [s.key for s in built.slice(ca=want)]
        )
        assert (
            pivot(reopened, "D", "ethnicity", "city")
            == pivot(built, "D", "ethnicity", "city")
        )
        assert reopened.to_rows() == built.to_rows()

    def test_metadata_and_vocabulary_survive(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        reopened = open_snapshot(tmp_path / "snap")
        assert reopened.metadata.index_names == built.metadata.index_names
        assert reopened.metadata.mode == built.metadata.mode
        assert reopened.metadata.n_rows == built.metadata.n_rows
        assert reopened.metadata.n_units == built.metadata.n_units
        assert reopened.metadata.extra["snapshot"]["format_version"] == (
            FORMAT_VERSION
        )
        for i in range(len(built.dictionary)):
            assert reopened.dictionary.item(i) == built.dictionary.item(i)
            assert reopened.dictionary.kind(i) == built.dictionary.kind(i)

    def test_mmapped_arrays_are_read_only(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        for mmap in (True, False):
            reopened = open_snapshot(tmp_path / "snap", mmap=mmap)
            with pytest.raises(ValueError):
                reopened.table.population[0] = 99

    def test_empty_cube_round_trips(self, tmp_path):
        cube = SegregationCube(
            {}, _tiny_dictionary(), _metadata(["D"])
        )
        dump_snapshot(cube, tmp_path / "empty")
        reopened = open_snapshot(tmp_path / "empty")
        assert len(reopened) == 0
        assert check_same_cells(cube, reopened, atol=0.0) == []
        assert reopened.to_rows() == []
        assert reopened.top("D", k=5) == []

    def test_single_cell_cube_round_trips(self, tmp_path):
        key = make_key([0], [1])
        cube = SegregationCube(
            {key: CellStats(key, 8, 3, 2, {"D": 0.25})},
            _tiny_dictionary(),
            _metadata(["D"]),
        )
        dump_snapshot(cube, tmp_path / "one")
        reopened = open_snapshot(tmp_path / "one")
        assert len(reopened) == 1
        assert check_same_cells(cube, reopened, atol=0.0) == []
        cell = reopened.cell_by_key(key)
        assert cell is not None and cell.value("D") == 0.25

    def test_numpy_scalar_item_values_dump_and_round_trip(self, tmp_path):
        """np.int64/np.bool_ vocabulary values must not break JSON and
        must reopen as their Python equivalents."""
        dictionary = ItemDictionary()
        dictionary.add(Item("g", "F"), ItemKind.SA)
        dictionary.add(Item("n", np.int64(2)), ItemKind.CA)
        dictionary.add(Item("flag", np.bool_(True)), ItemKind.CA)
        key = make_key([0], [1])
        cube = SegregationCube(
            {key: CellStats(key, 8, 3, 2, {"D": 0.25})},
            dictionary,
            _metadata(["D"]),
        )
        dump_snapshot(cube, tmp_path / "npvals")
        reopened = open_snapshot(tmp_path / "npvals")
        assert reopened.dictionary.item(1) == Item("n", 2)
        assert type(reopened.dictionary.item(1).value) is int
        assert type(reopened.dictionary.item(2).value) is bool

    def test_overwrite_prunes_stale_column_files(self, schools, tmp_path):
        """Re-dumping a cube with fewer index columns removes orphans."""
        table, schema = schools
        wide = SegregationDataCubeBuilder(indexes=["D", "G", "H"], min_population=10, min_minority=3).build(table, schema)
        narrow = SegregationDataCubeBuilder(indexes=["D"], min_population=10, min_minority=3).build(table, schema)
        dump_snapshot(wide, tmp_path / "snap")
        assert (tmp_path / "snap" / "col_2.npy").exists()
        dump_snapshot(narrow, tmp_path / "snap")
        assert (tmp_path / "snap" / "col_0.npy").exists()
        assert not (tmp_path / "snap" / "col_1.npy").exists()
        assert not (tmp_path / "snap" / "col_2.npy").exists()
        reopened = open_snapshot(tmp_path / "snap")
        assert check_same_cells(narrow, reopened, atol=0.0) == []

    def test_non_string_item_values_survive_exactly(self, tmp_path):
        """int/bool/float vocabulary values keep their exact type."""
        key = make_key([0], [2])
        cube = SegregationCube(
            {key: CellStats(key, 8, 3, 2, {"D": 0.5})},
            _tiny_dictionary(),
            _metadata(["D"]),
        )
        dump_snapshot(cube, tmp_path / "typed")
        reopened = open_snapshot(tmp_path / "typed")
        for i in range(len(cube.dictionary)):
            original = cube.dictionary.item(i)
            restored = reopened.dictionary.item(i)
            assert restored == original
            assert type(restored.value) is type(original.value)

    def test_custom_index_round_trips(self, schools, tmp_path):
        """A registered custom index (its own kernel) persists."""
        from repro.indexes.base import _REGISTRY, IndexSpec, register

        name = "TSnap"
        if name.upper() not in _REGISTRY:
            register(IndexSpec(name, "Minority proportion",
                               lambda block: block.proportion, (0.0, 1.0),
                               True))
        try:
            table, schema = schools
            cube = SegregationDataCubeBuilder(indexes=["D", name], min_population=10, min_minority=3).build(table, schema)
            dump_snapshot(cube, tmp_path / "custom")
            reopened = open_snapshot(tmp_path / "custom")
            assert reopened.metadata.index_names == ["D", name]
            assert check_same_cells(cube, reopened, atol=0.0) == []
        finally:
            _REGISTRY.pop(name.upper(), None)

    def test_closed_mode_materialised_cells_round_trip(
        self, schools, tmp_path
    ):
        """Closed-mode cubes persist their materialised (closed) cells;
        the lazy resolver is build-state and does not survive."""
        table, schema = schools
        closed = SegregationDataCubeBuilder(
            mode="closed", min_population=10, min_minority=3
        ).build(table, schema)
        full = SegregationDataCubeBuilder(min_population=10, min_minority=3).build(table, schema)
        dump_snapshot(closed, tmp_path / "closed")
        reopened = open_snapshot(tmp_path / "closed")
        assert check_same_cells(closed, reopened, atol=0.0) == []
        assert reopened.metadata.mode == "closed"
        # Any key the live closed cube resolves lazily and the snapshot
        # does not materialise answers None after reopen (covers gone).
        lazy_keys = [
            key for key in full.keys() if key not in set(closed.keys())
        ]
        for key in lazy_keys:
            assert closed.cell_by_key(key) is not None   # live: resolver
            assert reopened.cell_by_key(key) is None     # snapshot: cells only

    def test_extra_undeclared_columns_round_trip(self, tmp_path):
        """Hand-built cells with extra index entries keep their columns."""
        key = make_key([0], [1])
        cube = SegregationCube(
            {key: CellStats(key, 8, 3, 2, {"D": 0.25, "X": 0.75})},
            _tiny_dictionary(),
            _metadata(["D"]),
        )
        dump_snapshot(cube, tmp_path / "extra")
        reopened = open_snapshot(tmp_path / "extra")
        assert reopened.table.value_at(0, "X") == 0.75


#: Opens a snapshot memory-mapped, waits while the test rewrites its
#: directory, then compares every cell with a reference copy.
_CUBE_READER = """
import sys
from repro.cube.cube import check_same_cells
from repro.store import open_snapshot

live = open_snapshot(sys.argv[1], mmap=True)
print("ready", flush=True)
sys.stdin.readline()
reference = open_snapshot(sys.argv[2], mmap=False)
same = list(live.keys()) == list(reference.keys())
sys.exit(0 if same and not check_same_cells(live, reference, atol=0.0)
         else 1)
"""


class TestRedump:
    """Rewriting a snapshot directory leaves its open readers intact."""

    @pytest.fixture(scope="class")
    def big(self):
        # ~2k cells: every array spans several pages, so a reader of a
        # truncated file would fault, not just read stale bytes.
        table, schema = random_final_table(
            3000, 12, sa_attributes={"g": 2, "eth": 4},
            ca_attributes={"r": 3, "s": 4}, multi_valued_ca={"tag": 3},
            seed=3, skew=0.4,
        )
        return SegregationDataCubeBuilder(min_population=30, min_minority=8).build(table, schema)

    def test_mmap_reader_survives_smaller_redump(
        self, big, tmp_path, mmap_reader
    ):
        live, reference = tmp_path / "live", tmp_path / "reference"
        dump_snapshot(big, live)
        dump_snapshot(big, reference)
        finish = mmap_reader(_CUBE_READER, live, reference)
        key = make_key([0], [1])
        small = SegregationCube(
            {key: CellStats(key, 8, 3, 2, {"D": 0.25})},
            _tiny_dictionary(),
            _metadata(["D"]),
        )
        dump_snapshot(small, live)
        assert finish() == 0
        assert len(open_snapshot(live)) == 1

    def test_snapshot_backed_cube_redumps_onto_its_own_directory(
        self, big, tmp_path
    ):
        path = dump_snapshot(big, tmp_path / "snap")
        # Keep only the message: a failed redump's traceback holds views
        # of the files it truncated, and rendering those would fault.
        error = None
        try:
            dump_snapshot(open_snapshot(path, mmap=True), path)
        except OSError as exc:
            error = str(exc)
        assert error is None, error
        reopened = open_snapshot(path, mmap=False)
        assert list(reopened.keys()) == list(big.keys())
        assert check_same_cells(big, reopened, atol=0.0) == []


class TestValidation:
    def test_validate_accepts_fresh_snapshot(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        manifest = validate_snapshot(tmp_path / "snap")
        assert manifest.n_cells == len(built)
        assert manifest.column_names == list(built.metadata.index_names)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            open_snapshot(tmp_path / "nope")

    def test_missing_manifest_rejected(self, tmp_path):
        (tmp_path / "snap").mkdir()
        with pytest.raises(SnapshotError, match="manifest"):
            open_snapshot(tmp_path / "snap")

    def test_corrupted_manifest_rejected(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        (tmp_path / "snap" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError, match="not valid JSON"):
            open_snapshot(tmp_path / "snap")

    def test_version_mismatch_rejected(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        manifest_path = tmp_path / "snap" / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="format version"):
            open_snapshot(tmp_path / "snap")

    def test_missing_required_field_rejected(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        manifest_path = tmp_path / "snap" / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        del payload["items"]
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="missing required"):
            open_snapshot(tmp_path / "snap")

    def test_missing_array_file_rejected(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        (tmp_path / "snap" / "minority.npy").unlink()
        with pytest.raises(SnapshotError, match="minority.npy"):
            open_snapshot(tmp_path / "snap")

    @pytest.mark.parametrize("name, change, listed, match", [
        # The file disagrees with its own manifest entry.
        ("minority", lambda a: np.zeros(3, a.dtype), False, "minority.npy"),
        # Each file matches its entry; the shapes disagree with n_words
        # or with the other columns.
        ("ca_masks", lambda a: np.concatenate([a, a], axis=1), True,
         "'ca_masks'"),
        ("ca_masks", lambda a: a[:, 0], True, "'ca_masks'"),
        ("minority", lambda a: a[:, None], True, "'minority'"),
    ], ids=["row_count", "wide_masks", "flat_masks", "column_of_one"])
    def test_shape_mismatch_rejected(self, built, tmp_path, resave_listed,
                                     name, change, listed, match):
        snap = dump_snapshot(built, tmp_path / "snap")
        if listed:
            resave_listed(snap, name, change)
        else:
            np.save(snap / f"{name}.npy", change(np.load(snap / f"{name}.npy")))
        for check in (validate_snapshot, open_snapshot):
            with pytest.raises(SnapshotError, match=match):
                check(snap)

    def test_truncated_array_file_rejected(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        file = tmp_path / "snap" / "population.npy"
        file.write_bytes(file.read_bytes()[:16])
        with pytest.raises(SnapshotError):
            open_snapshot(tmp_path / "snap")

    def test_corrupted_vocabulary_value_rejected(self, built, tmp_path):
        """A tampered typed value raises SnapshotError, not ValueError."""
        dump_snapshot(built, tmp_path / "snap")
        manifest_path = tmp_path / "snap" / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["items"][0]["value_type"] = "int"
        payload["items"][0]["value"] = "not-a-number"
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="not a valid int"):
            open_snapshot(tmp_path / "snap")

    def test_corrupted_bool_vocabulary_value_rejected(
        self, built, tmp_path
    ):
        dump_snapshot(built, tmp_path / "snap")
        manifest_path = tmp_path / "snap" / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["items"][0]["value_type"] = "bool"
        payload["items"][0]["value"] = "false"   # string, not JSON bool
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="not a bool"):
            open_snapshot(tmp_path / "snap")

    def test_empty_array_file(self, built, tmp_path):
        dump_snapshot(built, tmp_path / "snap")
        (tmp_path / "snap" / "minority.npy").write_bytes(b"")
        for mmap in (True, False):
            with pytest.raises(SnapshotError, match="unreadable"):
                open_snapshot(tmp_path / "snap", mmap=mmap)

    def test_interrupted_overwrite_leaves_no_stale_manifest(
        self, built, tmp_path, crash_at
    ):
        """A crash at any file call of a re-dump must not leave an old
        manifest that validates a mix of old and new arrays: with a
        manifest the directory holds the old or the new cube, without
        one it is rejected, and dumping again completes it."""
        new = _shifted(built)
        digests = {table_digest(built.table), table_digest(new.table)}
        whole = dump_snapshot(built, tmp_path / "whole")
        calls = crash_at(lambda: dump_snapshot(new, whole))
        for crash in range(len(calls)):
            path = dump_snapshot(built, tmp_path / f"crash-{crash}")
            crash_at(lambda: dump_snapshot(new, path), fail=crash)
            if (path / MANIFEST_NAME).is_file():
                validate_snapshot(path)
                reopened = open_snapshot(path, mmap=False)
                assert table_digest(reopened.table) in digests, crash
            else:
                with pytest.raises(SnapshotError, match="manifest"):
                    open_snapshot(path)
            assert not list(path.glob("*.tmp"))
            dump_snapshot(new, path)
            assert sorted(f.name for f in path.iterdir()) == sorted(
                f.name for f in whole.iterdir()
            )
            assert check_same_cells(new, open_snapshot(path), atol=0.0) == []


def _shifted(cube: SegregationCube) -> SegregationCube:
    """``cube`` with every index value moved by one: the same files and
    shapes as ``cube``'s snapshot, with other bytes in the columns."""
    table = cube.table
    return SegregationCube(
        CellTable.from_arrays(TableArrays(
            population=table.population,
            minority=table.minority,
            n_units=table.n_units,
            sa_masks=table.sa_masks,
            ca_masks=table.ca_masks,
            columns={
                name: np.asarray(column) + 1.0
                for name, column in table.columns.items()
            },
        )),
        cube.dictionary,
        cube.metadata,
    )


def _digest_table(sa_parts, ca_parts, n_items, order):
    """Six fixed cells (NaN, inf, -0.0 and a denormal included), rows
    in the given order."""
    def pick(values):
        return [values[i] for i in order]

    return CellTable(
        [(frozenset(sa_parts[i]), frozenset(ca_parts[i])) for i in order],
        population=pick([40, 12, 7, 99, 3, 160]),
        minority=pick([4, 5, 1, 0, 3, 20]),
        n_units=pick([3, 2, 1, 4, 2, 6]),
        columns={
            "D": np.array(pick([0.25, np.nan, -0.0, 1.0, 0.5, 0.125])),
            "H": np.array(pick([np.inf, 0.1, 0.2, np.nan, -1e-300, 0.0])),
        },
        n_items=n_items,
    )


#: Mask words that differ in their low, high and middle bytes, so the
#: byte order of a row decides its place.
_WORDS = st.sampled_from(
    [0, 1, 2, 255, 256, 2 ** 32, 2 ** 56, 2 ** 63, 2 ** 64 - 1]
)


@st.composite
def _mask_rows(draw):
    """(masks, queries): 1-3 word (SA, CA) rows, duplicates likely."""
    n_words = draw(st.integers(1, 3))
    row = st.lists(_WORDS, min_size=2 * n_words, max_size=2 * n_words)
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=30))
    queries = draw(st.lists(
        st.one_of(st.sampled_from(distinct), row), max_size=10
    ))

    def matrix(values):
        return np.array(values, dtype="<u8").reshape(-1, 2 * n_words)

    return n_words, matrix(rows), matrix(queries)


class TestDigest:
    @pytest.mark.parametrize("sa_parts, ca_parts, n_items, golden", [
        (
            [{3, 6}, set(), {0}, {0}, {5}, set()],
            [{2}, {1}, set(), {1, 2}, {1}, set()],
            8,
            "68426dbac8dee4d1fb403c719c1aa0fa"
            "6239b9765f8cdf4377e2955d4ba7da6f",
        ),
        (
            [{3, 70}, set(), {0}, {64}, {5}, set()],
            [{130}, {1}, set(), {2, 129}, {1}, set()],
            131,
            "e7030feaa380bac8fa059ba4ee5eddbe"
            "805bf0fc717ad2534f367244574cd31c",
        ),
    ], ids=["1-word", "3-word"])
    def test_golden_digest(self, sa_parts, ca_parts, n_items, golden):
        # Digests already on disk must keep verifying, so the value is
        # pinned, in any row order.
        for order in (range(6), range(5, -1, -1), (3, 0, 5, 1, 4, 2)):
            table = _digest_table(sa_parts, ca_parts, n_items, order)
            assert table_digest(table) == golden

    @settings(max_examples=200, deadline=None)
    @given(_mask_rows())
    def test_row_order_and_search_match_python_bytes(self, drawn):
        n_words, rows, queries = drawn
        keys = packed_rows(rows[:, :n_words], rows[:, n_words:])
        assert np.argsort(keys, kind="stable").tolist() == sorted(
            range(len(rows)), key=lambda i: rows[i].tobytes()
        )
        # The dict the row search replaces: the last row of each key.
        by_bytes = {row.tobytes(): i for i, row in enumerate(rows)}
        found = _find_rows(
            keys, packed_rows(queries[:, :n_words], queries[:, n_words:])
        )
        assert found.tolist() == [
            by_bytes.get(query.tobytes(), -1) for query in queries
        ]
