"""Tests of the columnar cube core: CellTable and the batched fill.

Pins the columnar contract: the fill produces cubes **bit-identical** to
the one-cell-at-a-time reference in ``tests/oracles.py`` (same cells in
the same order, same counts, same index bits), and the array-routed
query primitives (top-k, slice, children) agree with their brute-force
per-object formulations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cube.builder import SegregationDataCubeBuilder, build_cube
from repro.cube.cell import CellStats
from repro.cube.coordinates import describe_key, make_key
from repro.cube.cube import CubeMetadata, SegregationCube, check_same_cells
from repro.cube.table import CellTable, decode_key, pack_items
from repro.data.synthetic import random_final_table
from repro.errors import CubeError
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.store import dump_snapshot, open_snapshot

from tests.oracles import SCALAR_INDEXES, is_degenerate, percell_cube


@pytest.fixture(scope="module")
def dataset():
    return random_final_table(
        n_rows=5000,
        n_units=13,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3},
        multi_valued_ca={"mv": 3},
        seed=23,
        skew=0.4,
    )


@pytest.fixture(scope="module")
def engines(dataset):
    table, schema = dataset
    limits = {"min_population": 25, "min_minority": 6,
              "max_sa_items": 2, "max_ca_items": 2}
    columnar = SegregationDataCubeBuilder(
        engine="columnar", **limits
    ).build(table, schema)
    percell = percell_cube(
        SegregationDataCubeBuilder(**limits), table, schema
    )
    return columnar, percell


class TestColumnarEquivalence:
    def test_same_cells_same_order(self, engines):
        columnar, percell = engines
        assert list(columnar.keys()) == list(percell.keys())

    def test_bit_identical_counts_and_indexes(self, engines):
        columnar, percell = engines
        # atol=0: not approximately equal — *identical*.
        assert check_same_cells(columnar, percell, atol=0.0) == []

    def test_engines_recorded_in_metadata(self, engines, dataset):
        columnar, _ = engines
        assert columnar.metadata.extra["engine"] == "columnar"
        table, schema = dataset
        incremental = SegregationDataCubeBuilder(
            engine="incremental", min_population=25, min_minority=6,
            max_sa_items=1, max_ca_items=1,
        ).build(table, schema)
        assert incremental.metadata.extra["engine"] == "incremental"

    def test_bad_engine_rejected(self):
        with pytest.raises(CubeError, match="engine"):
            SegregationDataCubeBuilder(engine="bogus")

    def test_to_rows_identical(self, engines):
        columnar, percell = engines
        assert columnar.to_rows() == percell.to_rows()

    def test_closed_mode_lazy_resolution_exact(self, dataset):
        table, schema = dataset
        limits = {"min_population": 25, "min_minority": 6,
                  "max_sa_items": 2, "max_ca_items": 2}
        full = build_cube(table, schema, **limits)
        closed = SegregationDataCubeBuilder(
            engine="columnar", mode="closed", **limits
        ).build(table, schema)
        assert len(closed) <= len(full)
        for key in full.keys():
            a = full.cell_by_key(key)
            b = closed.cell_by_key(key)   # materialised or lazily resolved
            assert b is not None
            assert (a.population, a.minority) == (b.population, b.minority)
            for name in full.metadata.index_names:
                va, vb = a.value(name), b.value(name)
                assert (np.isnan(va) and np.isnan(vb)) or va == vb

    def test_tiny_fill_batches_bit_identical(self, dataset, monkeypatch):
        """Splitting contexts across fill batches must not change bits."""
        import repro.cube.builder as builder_mod

        table, schema = dataset
        limits = {"min_population": 25, "min_minority": 6,
                  "max_sa_items": 2, "max_ca_items": 2}
        one_batch = SegregationDataCubeBuilder(
            engine="columnar", **limits
        ).build(table, schema)
        # 13 units: batches of 1 row, and of 7 rows (a batch then holds
        # the end of one context and the start of the next).
        for budget in (3, 100):
            monkeypatch.setattr(builder_mod, "_FILL_BATCH_CELLS", budget)
            tiny_batches = SegregationDataCubeBuilder(
                engine="columnar", **limits
            ).build(table, schema)
            assert list(tiny_batches.keys()) == list(one_batch.keys())
            assert check_same_cells(tiny_batches, one_batch, atol=0.0) == []

    def test_columnar_matches_custom_index_kernel(self, dataset,
                                                  monkeypatch):
        """A custom index runs its kernel on the fill's evaluator, with
        the bits of its scalar reference in the per-cell fill."""
        from repro.indexes.base import _REGISTRY, IndexSpec

        name = "TProp"
        monkeypatch.setitem(_REGISTRY, name.upper(), IndexSpec(
            name, "Minority proportion", lambda block: block.proportion,
            (0.0, 1.0), True,
        ))
        monkeypatch.setitem(
            SCALAR_INDEXES, name,
            lambda c: float("nan") if is_degenerate(c) else c.proportion,
        )
        table, schema = dataset
        limits = {"min_population": 25, "min_minority": 6,
                  "max_sa_items": 1, "max_ca_items": 1,
                  "indexes": ["D", name]}
        columnar = build_cube(table, schema, engine="columnar", **limits)
        percell = percell_cube(
            SegregationDataCubeBuilder(**limits), table, schema
        )
        assert check_same_cells(columnar, percell, atol=0.0) == []


class TestArrayRoutedQueries:
    def test_top_matches_reference_sort(self, engines):
        columnar, _ = engines
        for index_name in ("D", "G", "Int"):
            for ascending in (False, True):
                for k in (1, 5, 1000):
                    got = columnar.top(index_name, k=k, min_minority=8,
                                       ascending=ascending)
                    reference = [
                        stats
                        for stats in columnar
                        if not stats.is_context_only
                        and stats.is_defined(index_name)
                        and stats.minority >= 8
                        and stats.population >= 0
                        and stats.n_units >= 2
                    ]
                    reference.sort(
                        key=lambda s: (
                            s.value(index_name) if ascending
                            else -s.value(index_name),
                            describe_key(s.key, columnar.dictionary),
                        )
                    )
                    assert [s.key for s in got] == [
                        s.key for s in reference[:k]
                    ]

    def test_top_unknown_index_empty(self, engines):
        columnar, _ = engines
        assert columnar.top("nope", k=3) == []

    def test_slice_matches_subset_scan(self, engines):
        columnar, _ = engines
        sliced = columnar.slice(ca={"r": "r0"})
        from repro.cube.coordinates import encode_query

        want = encode_query(columnar.dictionary, ca={"r": "r0"})
        brute = [
            key for key in columnar.keys()
            if want[0] <= key[0] and want[1] <= key[1]
        ]
        assert sorted(map(str, (s.key for s in sliced))) == sorted(
            map(str, brute)
        )
        assert len(brute) > 0

    def test_children_matches_brute_force(self, engines):
        columnar, _ = engines
        root = make_key([], [])
        got = {s.key for s in columnar.children(root)}
        brute = {
            key for key in columnar.keys()
            if len(key[0]) + len(key[1]) == 1
        }
        assert got == brute

    def test_value_by_key_reads_column(self, engines):
        columnar, _ = engines
        for stats in list(columnar)[:20]:
            v = columnar.value_by_key("D", stats.key)
            sv = stats.value("D")
            assert (np.isnan(v) and np.isnan(sv)) or v == sv


class TestCellTable:
    def test_from_cells_round_trip(self):
        cells = {
            make_key([], []): CellStats(make_key([], []), 10, 10, 2,
                                        {"D": float("nan")}),
            make_key([0], [2]): CellStats(make_key([0], [2]), 8, 3, 2,
                                          {"D": 0.25}),
        }
        table = CellTable.from_cells(cells, ["D"], 4)
        assert len(table) == 2
        restored = table.stats(1)
        assert restored == cells[make_key([0], [2])]
        assert table.row_of(make_key([0], [2])) == 1
        assert table.row_of(make_key([1], [])) is None

    def test_from_cells_keeps_undeclared_index_entries(self):
        """Hand-built cells may carry extras beyond metadata names."""
        key = make_key([0], [2])
        cells = {key: CellStats(key, 8, 3, 2, {"D": 0.25, "G": 0.4})}
        table = CellTable.from_cells(cells, ["D"], 4)
        assert table.value_at(0, "G") == 0.4
        assert table.stats(0).value("G") == 0.4

    def test_column_length_validated(self):
        with pytest.raises(ValueError, match="rows for"):
            CellTable([make_key([], [])], [1], [1], [1],
                      {"D": np.zeros(2)}, 2)

    def test_pack_items_beyond_one_word(self):
        mask = pack_items([0, 63, 64, 130], 3)
        assert mask[0] == (1 | (1 << 63))
        assert mask[1] == 1
        assert mask[2] == 1 << 2

    def test_top_rows_ignores_nan_cells(self):
        nan = float("nan")
        keys = [make_key([0], [i + 1]) for i in range(5)]
        table = CellTable(keys, [9] * 5, [4] * 5, [2] * 5,
                          {"D": np.array([1.0, 2.0, nan, nan, nan])}, 8)
        rows = table.top_rows("D", k=4, mask=np.ones(5, dtype=bool),
                              descending=True, tie_break=lambda r: r)
        assert rows == [1, 0]

    def test_hand_built_keys_beyond_dictionary_accepted(self):
        """Keys past n_items size the masks up instead of crashing."""
        key = make_key([70], [])
        cells = {key: CellStats(key, 8, 3, 2, {"D": 0.25})}
        table = CellTable.from_cells(cells, ["D"], 1)
        assert table.row_of(key) == 0
        assert table.superset_mask([70], []).tolist() == [True]
        assert table.superset_mask([71], []).tolist() == [False]

    def test_superset_mask_out_of_range_items_match_nothing(
        self, tmp_path
    ):
        keys = [make_key([0], [1]), make_key([], [1])]
        table = CellTable(keys, [5, 5], [2, 2], [1, 1], {}, 2)
        dictionary = ItemDictionary()
        dictionary.add(Item("g", "a"), ItemKind.SA)
        dictionary.add(Item("r", "x"), ItemKind.CA)
        cube = SegregationCube(table, dictionary, CubeMetadata(
            index_names=[], min_population=1, min_minority=1, n_rows=5,
            n_units=1, mode="all", backend="test",
        ))
        reopened = open_snapshot(dump_snapshot(cube, tmp_path / "snap"))
        # Like the frozenset subset test: unknown ids -> no match, and
        # no row holds them (absent, never an exception).
        for tab in (table, reopened.table):
            assert tab.superset_mask([999], []).tolist() == [False, False]
            assert tab.superset_mask([], [64]).tolist() == [False, False]
            assert tab.superset_mask([-1], []).tolist() == [False, False]
            for key in (make_key([999], [1]), make_key([0], [64]),
                        make_key([-1], [1]), make_key([], [-1, 1])):
                assert tab.row_of(key) is None
                assert key not in tab
            assert tab.row_of(keys[0]) == 0

    def test_children_with_foreign_key_is_empty(self, engines):
        columnar, _ = engines
        foreign = make_key([10_000], [])
        assert columnar.children(foreign) == []

    def test_from_arrays_reconstructs_derived_state(self, engines):
        """Keys, sizes and the row index rebuild from the bare arrays."""
        columnar, _ = engines
        table = columnar.table
        clone = CellTable.from_arrays(table.arrays)
        assert clone.keys == table.keys
        assert np.array_equal(clone.sa_sizes, table.sa_sizes)
        assert np.array_equal(clone.ca_sizes, table.ca_sizes)
        for key in table.keys[:25]:
            assert clone.row_of(key) == table.row_of(key)
        row = int(np.flatnonzero(table.defined_mask("D"))[0])
        assert clone.stats(row) == table.stats(row)

    def test_decode_key_inverts_pack(self):
        parts = [frozenset(), frozenset({0, 63}), frozenset({64, 130})]
        rows = CellTable._pack_parts(parts, 3).tolist()
        for row, part in enumerate(parts):
            other = parts[-1 - row]
            assert decode_key(rows[row], rows[-1 - row]) == (part, other)


class TestPointLookupRouting:
    """Regression: point lookups are O(1) index probes, never key scans."""

    def test_point_lookups_never_scan_keys(self, engines, monkeypatch,
                                           decoded):
        columnar, _ = engines
        sample = columnar.table.keys[:10]
        absent = make_key([0, 1], [9_999])
        # A reopened-style table: no key decoded yet.
        cube = SegregationCube(
            CellTable.from_arrays(columnar.table.arrays),
            columnar.dictionary, columnar.metadata,
        )

        def no_whole_table_decode(self):
            raise AssertionError("point lookup decoded every key")

        monkeypatch.setattr(CellTable, "keys",
                            property(no_whole_table_decode))
        table = cube.table.warm()
        for key in sample:
            assert cube.cell_by_key(key).key == key
            assert key in cube
            assert isinstance(cube.value_by_key("D", key), float)
        assert table.row_of(absent) is None
        # Only the looked-up rows were decoded, each once.
        assert len(decoded) == len(sample)

    def test_superset_mask_wide_dictionaries(self):
        keys = [
            make_key([0, 70], [100]),
            make_key([0], [100]),
            make_key([70], []),
        ]
        table = CellTable(
            keys, [5, 5, 5], [2, 2, 2], [1, 1, 1], {}, 140
        )
        assert table.superset_mask([0], [100]).tolist() == [
            True, True, False
        ]
        assert table.superset_mask([70], []).tolist() == [
            True, False, True
        ]
        assert table.superset_mask([], []).tolist() == [True, True, True]
