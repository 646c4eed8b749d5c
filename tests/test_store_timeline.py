"""Tests of delta snapshots, the cube timeline, and timeline serving."""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import threading

import numpy as np
import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.compare import timeline_series
from repro.cube.cube import SegregationCube, check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.cube.table import CellTable, TableArrays, packed_rows
from repro.data.synthetic import random_temporal_final_table
from repro.errors import CubeError, SnapshotError
from repro.etl.diff import valid_at
from repro.itemsets.items import Item, ItemDictionary
from repro.itemsets.transactions import encode_table
from repro.serve.__main__ import main as serve_main
from repro.serve.http import make_app, wsgi_get
from repro.serve.service import CubeService
from repro.store import (
    CubeTimeline,
    MANIFEST_NAME,
    delta_chain_length,
    dump_delta_snapshot,
    dump_into_timeline,
    dump_snapshot,
    open_snapshot,
    table_digest,
    timeline_dates,
    validate_snapshot,
)
from repro.store.manifest import DATA_NAME, SnapshotManifest
from repro.store.snapshot import changed_cells, delta_chain
from repro.store.timeline import timeline_changes
from tests.datafile import edit_manifest, read_payload, truncate, write_region
from tests.oracles import (
    reachable_cubes,
    series_values,
    timeline_series_reference,
)

DATES = (0, 1, 2)
LIMITS = {"min_population": 20, "min_minority": 5,
          "max_sa_items": 2, "max_ca_items": 2}


def _engine_and_dates(mode="all"):
    """The timeline's incremental engine and its ``(date, valid)`` list."""
    table, schema, starts, ends = random_temporal_final_table(
        n_rows=3000, n_units=12, dates=DATES,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3},
        multi_valued_ca={"mv": 3},
        seed=5, skew=0.5,
    )
    db = encode_table(table, schema)
    engine = TemporalCubeEngine(
        db, SegregationDataCubeBuilder(engine="incremental", mode=mode,
                                       **LIMITS)
    )
    return engine, [(d, valid_at(starts, ends, d)) for d in DATES]


@pytest.fixture(scope="module")
def states():
    engine, dated = _engine_and_dates()
    return engine.run(dated)


@pytest.fixture(scope="module")
def other_states():
    """Two dates over another table: one more context attribute, so its
    vocabulary differs from ``states``'."""
    table, schema, starts, ends = random_temporal_final_table(
        n_rows=2000, n_units=10, dates=(0, 1),
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3, "t": 2},
        multi_valued_ca={"mv": 3},
        seed=8, skew=0.5,
    )
    engine = TemporalCubeEngine(
        encode_table(table, schema),
        SegregationDataCubeBuilder(engine="incremental", **LIMITS),
    )
    return engine.run([(d, valid_at(starts, ends, d)) for d in (0, 1)])


@pytest.fixture()
def timeline_dir(states, tmp_path):
    root = tmp_path / "timeline"
    previous = None
    for state in states:
        dump_into_timeline(
            root, state.date, state.cube,
            parent_date=None if previous is None else previous.date,
            parent=None if previous is None else previous.cube,
        )
        previous = state
    return root


def _publish(root, states, dates, full=False):
    """Publish ``states[d]`` at each of ``dates``, each on the date before.

    ``full`` writes every date as a full snapshot (a checkpoint).
    """
    for date in dates:
        parent = None if date == 0 or full else date - 1
        dump_into_timeline(
            root, date, states[date].cube, parent_date=parent,
            parent=None if parent is None else states[parent].cube,
        )


def _cycle(root, states, n_dates):
    """Publish ``n_dates`` dates, date ``d`` holding the cube of
    ``states[d % len(states)]``, each on the date before; yield each
    date once it is published."""
    cubes = [states[d % len(states)].cube for d in range(n_dates)]
    for date, cube in enumerate(cubes):
        dump_into_timeline(
            root, date, cube,
            parent_date=None if date == 0 else date - 1,
            parent=None if date == 0 else cubes[date - 1],
        )
        yield date


def _publish_cycle(root, states, n_dates):
    for _ in _cycle(root, states, n_dates):
        pass


@pytest.fixture()
def argsorted(monkeypatch):
    """The length of every array ``np.argsort`` sorts while active."""
    lengths = []
    argsort = np.argsort

    def counting(array, *args, **kwargs):
        lengths.append(len(array))
        return argsort(array, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return lengths


@pytest.fixture()
def count_opens(monkeypatch):
    """Count snapshot directories loaded and deltas composed.

    Returns a dict whose ``loads`` / ``composes`` lists grow with every
    call of the store's checked loader and delta composer.
    """
    import repro.store.snapshot as snapshot_module

    calls = {"loads": [], "composes": []}
    load = snapshot_module._load_checked
    compose = snapshot_module._compose_delta

    def counting_load(directory, mmap):
        calls["loads"].append(directory)
        return load(directory, mmap)

    def counting_compose(directory, *args):
        calls["composes"].append(directory)
        return compose(directory, *args)

    monkeypatch.setattr(snapshot_module, "_load_checked", counting_load)
    monkeypatch.setattr(snapshot_module, "_compose_delta", counting_compose)
    return calls


TOP_QUERY = "/top?index=D&k=10"

#: Every endpoint a refreshed server must answer as a fresh one does.
TIMELINE_QUERIES = (
    "/info",
    "/dates",
    TOP_QUERY,
    "/slice?ca=r%3Dr0",
    "/cell?sa=g%3Dg0",
    "/children?sa=g%3Dg0",
    "/parents?sa=g%3Dg0&ca=r%3Dr0",
    "/pivot?index=D&rows=g&cols=r",
    "/trend?index=D&sa=g%3Dg0&ca=r%3Dr0",
)


def _comparable(query, body):
    """``body`` without what legitimately differs between two servers.

    Only ``/info`` has such parts: the cache counters, and the seconds
    since the last publish, which the clock moves between the calls.
    """
    if query != "/info":
        return body
    info = json.loads(body)
    info.pop("cache")
    info["staleness"].pop("seconds_since_publish")
    return info


class TestDeltaSnapshot:
    def test_chain_reopen_is_bit_exact(self, states, timeline_dir):
        for state in states:
            reopened = open_snapshot(timeline_dir / str(state.date))
            assert check_same_cells(state.cube, reopened, atol=0.0) == []

    def test_delta_manifest_records_parent(self, timeline_dir):
        manifest = validate_snapshot(timeline_dir / "1")
        assert manifest.delta is not None
        assert manifest.delta["parent"] == "../0"
        assert manifest.delta["n_superseded"] >= 0
        assert validate_snapshot(timeline_dir / "0").delta is None

    def test_delta_stores_fewer_cells_than_full(self, states, timeline_dir):
        full = validate_snapshot(timeline_dir / "0")
        delta = validate_snapshot(timeline_dir / "1")
        assert delta.n_cells < full.n_cells
        assert delta.n_cells == len(states[1].cube) - (
            full.n_cells - int(delta.delta["n_superseded"])
        )

    def test_timeline_is_relocatable(self, states, timeline_dir, tmp_path):
        moved = tmp_path / "elsewhere" / "tl"
        shutil.copytree(timeline_dir, moved)
        reopened = open_snapshot(moved / "2")
        assert check_same_cells(states[2].cube, reopened, atol=0.0) == []

    def test_no_mmap_open_matches(self, states, timeline_dir):
        reopened = open_snapshot(timeline_dir / "2", mmap=False)
        assert check_same_cells(states[2].cube, reopened, atol=0.0) == []

    def test_identical_cube_produces_empty_delta(self, states, tmp_path):
        cube = states[0].cube
        dump_snapshot(cube, tmp_path / "full")
        dump_delta_snapshot(cube, tmp_path / "same", tmp_path / "full")
        manifest = validate_snapshot(tmp_path / "same")
        assert manifest.n_cells == 0
        assert manifest.delta["n_superseded"] == 0
        reopened = open_snapshot(tmp_path / "same")
        assert check_same_cells(cube, reopened, atol=0.0) == []

    def test_grandchild_chain_resolves(self, states, timeline_dir):
        # 2 -> 1 -> 0 is already a two-deep chain; depth recorded.
        cube = open_snapshot(timeline_dir / "2")
        snapshot_info = cube.metadata.extra["snapshot"]
        assert snapshot_info["delta_depth"] == 1
        assert snapshot_info["parent"].endswith("1")


def _cut_inside(child, name):
    """Truncate the data file 16 bytes into ``name``'s region."""
    truncate(child, read_payload(child)["arrays"][name]["offset"] + 16)


def _first_column(child):
    return "column:" + read_payload(child)["column_names"][0]


def _edit_entry(child, name, key, value):
    edit_manifest(
        child, lambda p: p["arrays"][name].__setitem__(key, value)
    )


def _flip_low_bit(values):
    bits = values.view(np.uint64).copy()
    bits[0] ^= np.uint64(1)
    return bits.view(values.dtype)


#: Corruptions of a delta's own directory: ``case -> (corrupt(child),
#: pattern of the SnapshotError message)``.
DELTA_CORRUPTIONS = {
    "missing_own_file": (
        lambda child: (child / DATA_NAME).unlink(), "missing file",
    ),
    "truncated_own_array": (
        lambda child: _cut_inside(child, _first_column(child)),
        "holds .* bytes, its manifest records",
    ),
    "truncated_superseded_array": (
        lambda child: _cut_inside(child, "superseded_ca"),
        "holds .* bytes, its manifest records",
    ),
    "shape_mismatch": (
        lambda child: _edit_entry(
            child, "minority", "shape",
            [read_payload(child)["n_cells"] + 1],
        ),
        "'minority' has shape",
    ),
    "dtype_mismatch": (
        lambda child: _edit_entry(child, "n_units", "dtype", "int32"),
        "'n_units' must be int64",
    ),
    "missing_superseded_entry": (
        lambda child: edit_manifest(
            child, lambda p: p["arrays"].pop("superseded_sa")
        ),
        "superseded_sa",
    ),
    "malformed_delta_section": (
        lambda child: edit_manifest(
            child, lambda p: p["delta"].pop("n_superseded")
        ),
        "malformed delta",
    ),
    "missing_digest": (
        lambda child: edit_manifest(
            child, lambda p: p.pop("content_digest")
        ),
        "missing required fields: content_digest",
    ),
    "superseded_mask_mismatch": (
        lambda child: write_region(
            child, "superseded_sa", lambda a: np.full_like(a, 0xDEADBEEF),
        ),
        "mask mismatch",
    ),
    "flipped_own_float": (
        lambda child: write_region(
            child, _first_column(child), _flip_low_bit
        ),
        "digest",
    ),
    # A delta takes its parent's vocabulary and must not carry one.
    "items_in_delta": (
        lambda child: edit_manifest(child, lambda p: p.__setitem__(
            "items", read_payload(child.parent / "0")["items"]
        )),
        "delta manifest carries an items list",
    ),
}


class TestDeltaCorruption:
    def test_missing_parent_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        dump_delta_snapshot(
            states[1].cube, tmp_path / "child", tmp_path / "parent"
        )
        shutil.rmtree(tmp_path / "parent")
        with pytest.raises(SnapshotError, match="cannot resolve its parent"):
            open_snapshot(tmp_path / "child")

    def test_self_parent_cycle_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        child = tmp_path / "child"
        dump_delta_snapshot(states[1].cube, child, tmp_path / "parent")
        payload = json.loads((child / MANIFEST_NAME).read_text())
        payload["delta"]["parent"] = "."
        (child / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="cyclic"):
            open_snapshot(child)

    def test_two_node_cycle_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "root")
        dump_delta_snapshot(
            states[1].cube, tmp_path / "d1", tmp_path / "root"
        )
        dump_delta_snapshot(
            states[2].cube, tmp_path / "d2", tmp_path / "d1"
        )
        payload = json.loads((tmp_path / "d1" / MANIFEST_NAME).read_text())
        payload["delta"]["parent"] = "../d2"
        (tmp_path / "d1" / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="cyclic"):
            open_snapshot(tmp_path / "d2")

    def test_superseded_mask_mismatch_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        child = tmp_path / "child"
        dump_delta_snapshot(states[1].cube, child, tmp_path / "parent")
        manifest = validate_snapshot(child)
        if manifest.delta["n_superseded"] == 0:
            pytest.skip("delta supersedes nothing")
        def first_row_dead(masks):
            masks[0] = np.uint64(0xDEADBEEF)
            return masks

        write_region(child, "superseded_sa", first_row_dead)
        with pytest.raises(SnapshotError, match="mask mismatch"):
            open_snapshot(child)

    def test_missing_superseded_array_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        child = tmp_path / "child"
        dump_delta_snapshot(states[1].cube, child, tmp_path / "parent")
        payload = json.loads((child / MANIFEST_NAME).read_text())
        del payload["arrays"]["superseded_sa"]
        (child / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="superseded_sa"):
            validate_snapshot(child)

    def test_malformed_delta_section_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        child = tmp_path / "child"
        dump_delta_snapshot(states[1].cube, child, tmp_path / "parent")
        payload = json.loads((child / MANIFEST_NAME).read_text())
        payload["delta"] = {"parent": "../parent"}   # n_superseded gone
        (child / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="malformed delta"):
            validate_snapshot(child)

    def test_delta_arrays_without_delta_section_rejected(
        self, states, tmp_path
    ):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        child = tmp_path / "child"
        dump_delta_snapshot(states[1].cube, child, tmp_path / "parent")
        payload = json.loads((child / MANIFEST_NAME).read_text())
        payload["delta"] = None   # superseded_* arrays stay listed
        (child / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="without a delta section"):
            validate_snapshot(child)

    def test_mismatched_parent_cube_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        with pytest.raises(SnapshotError, match="does not match"):
            dump_delta_snapshot(
                states[2].cube, tmp_path / "child", tmp_path / "parent",
                parent=states[1].cube,   # stale: disk holds states[0]
            )

    def test_matching_parent_cube_accepted(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        dump_delta_snapshot(
            states[1].cube, tmp_path / "child", tmp_path / "parent",
            parent=states[0].cube,
        )
        reopened = open_snapshot(tmp_path / "child")
        assert check_same_cells(states[1].cube, reopened, atol=0.0) == []

    def test_relabelled_parent_cube_rejected(self, states, tmp_path):
        # The supplied parent holds the disk's cells over relabelled
        # items, and the cube shares its vocabulary: the content digest
        # cannot tell, so the root's vocabulary must.
        relabelled = ItemDictionary()
        vocabulary = states[0].cube.dictionary
        for i in range(len(vocabulary)):
            item = vocabulary.item(i)
            relabelled.add(Item(item.attribute, f"{item.value}'"),
                           vocabulary.kind(i))
        cubes = [
            SegregationCube(state.cube.table, relabelled,
                            state.cube.metadata)
            for state in states
        ]
        dump_snapshot(states[0].cube, tmp_path / "parent")
        with pytest.raises(SnapshotError, match="does not match"):
            dump_delta_snapshot(cubes[1], tmp_path / "child",
                                tmp_path / "parent", parent=cubes[0])
        root = tmp_path / "tl"
        _publish(root, states, [0, 1])
        with pytest.raises(SnapshotError, match="does not match"):
            dump_into_timeline(root, 2, cubes[2], parent_date=1,
                               parent=cubes[1])
        assert timeline_dates(root) == [0, 1]

    def test_parent_value_drift_caught_by_digest(self, states, tmp_path):
        # Keys unchanged, values silently rewritten in the parent after
        # the delta was dumped: only the content digest can catch it.
        dump_snapshot(states[0].cube, tmp_path / "parent")
        child = tmp_path / "child"
        dump_delta_snapshot(states[1].cube, child, tmp_path / "parent")
        def bump_first(populations):
            populations[0] += 1
            return populations

        write_region(tmp_path / "parent", "population", bump_first)
        with pytest.raises(SnapshotError, match="digest"):
            open_snapshot(child)

    def test_delta_onto_itself_rejected(self, states, tmp_path):
        target = tmp_path / "snap"
        dump_snapshot(states[0].cube, target)
        with pytest.raises(SnapshotError, match="its own parent"):
            dump_delta_snapshot(states[1].cube, target, target)
        # The refusal must leave the original snapshot intact.
        reopened = open_snapshot(target)
        assert check_same_cells(states[0].cube, reopened, atol=0.0) == []

    def test_superseded_count_mismatch_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "parent")
        child = tmp_path / "child"
        dump_delta_snapshot(states[1].cube, child, tmp_path / "parent")
        payload = json.loads((child / MANIFEST_NAME).read_text())
        payload["delta"]["n_superseded"] = (
            int(payload["delta"]["n_superseded"]) + 7
        )
        (child / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="superseded"):
            open_snapshot(child)

    @pytest.mark.parametrize("via", ["open", "refresh"])
    @pytest.mark.parametrize("case", sorted(DELTA_CORRUPTIONS))
    def test_corrupt_delta_rejected(self, states, tmp_path, case, via):
        corrupt, message = DELTA_CORRUPTIONS[case]
        root = tmp_path / "tl"
        _publish(root, states, [0])
        app = make_app(root)
        before = wsgi_get(app, TOP_QUERY)
        _publish(root, states, [1])
        child = root / "1"
        assert delta_chain_length(child) == 1
        corrupt(child)
        if via == "open":
            with pytest.raises(SnapshotError, match=message):
                open_snapshot(child)
            return
        status, _, body = wsgi_get(app, "/refresh", method="POST")
        assert status == 400
        assert re.search(message, json.loads(body)["error"])
        # The app keeps serving the date it served before.
        assert wsgi_get(app, TOP_QUERY) == before
        assert json.loads(wsgi_get(app, "/dates")[2])["served_date"] == 0


class TestCubeTimeline:
    def test_dates_discovered_and_sorted(self, timeline_dir):
        assert timeline_dates(timeline_dir) == list(DATES)
        timeline = CubeTimeline(timeline_dir)
        assert timeline.dates == list(DATES)
        assert len(timeline) == len(DATES)
        assert 1 in timeline and 99 not in timeline

    def test_at_caches_and_matches(self, states, timeline_dir):
        timeline = CubeTimeline(timeline_dir)
        for state in states:
            cube = timeline.at(state.date)
            assert cube is timeline.at(state.date)
            assert check_same_cells(state.cube, cube, atol=0.0) == []

    def test_unknown_date_rejected(self, timeline_dir):
        with pytest.raises(SnapshotError, match="no snapshot for date"):
            CubeTimeline(timeline_dir).at(1234)

    def test_iteration_in_date_order(self, timeline_dir):
        assert [date for date, _ in CubeTimeline(timeline_dir)] == list(DATES)

    def test_empty_or_missing_directory_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            CubeTimeline(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(SnapshotError, match="no dated snapshots"):
            CubeTimeline(tmp_path / "empty")

    def test_non_dated_children_ignored(self, timeline_dir):
        (timeline_dir / "notes").mkdir()
        (timeline_dir / "notes" / "readme.txt").write_text("hi")
        assert timeline_dates(timeline_dir) == list(DATES)

    def test_chain_walk_resolves_each_snapshot_once(
        self, timeline_dir, count_opens
    ):
        timeline = CubeTimeline(timeline_dir)
        for date in timeline.dates:
            timeline.at(date)
        # Without the shared resolution cache, date k re-loads its whole
        # parent chain: 1+2+3 = 6 directory loads for 3 dates.
        assert len(count_opens["loads"]) == len(DATES)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_open_reads_each_data_file_once(
        self, timeline_dir, opened_files, mmap
    ):
        chain = delta_chain(timeline_dir / "2")
        assert len(chain) == 3   # two hops onto the full root
        opened_files.clear()
        open_snapshot(timeline_dir / "2", mmap=mmap)
        data_files = [
            path for path in opened_files
            if os.path.basename(path) == DATA_NAME
        ]
        # k directories, k data files, each opened once.
        assert sorted(data_files) == sorted(
            str(directory / DATA_NAME) for directory in chain
        )

    def test_chain_open_sorts_its_root_and_decodes_one_vocabulary(
        self, states, tmp_path, argsorted, monkeypatch
    ):
        root = tmp_path / "tl"
        _publish_cycle(root, states, 9)
        decodes = []
        dictionary = SnapshotManifest.dictionary

        def counting(manifest):
            decodes.append(manifest)
            return dictionary(manifest)

        monkeypatch.setattr(SnapshotManifest, "dictionary", counting)
        hops = []
        for date in range(9):
            chain = [SnapshotManifest.read(d)
                     for d in delta_chain(root / str(date))]
            hops.append(len(chain) - 1)
            argsorted.clear()
            decodes.clear()
            cube = open_snapshot(root / str(date))
            # A full snapshot sorts nothing; a delta chain sorts its
            # root's whole table once, then each delta's own rows alone.
            assert sorted(argsorted) == (
                [] if len(chain) == 1 else sorted(m.n_cells for m in chain)
            )
            assert len(decodes) == 1
            for manifest in chain[:-1]:
                assert manifest.items is None
            # Every cube of the chain shares the root's vocabulary.
            assert len(cube.dictionary) == chain[-1].n_items
        assert max(hops) >= 4

    def test_composed_order_is_the_stable_argsort(self, states, tmp_path):
        root = tmp_path / "tl"
        _publish_cycle(root, states, 12)
        for _, cube in CubeTimeline(root):
            table = cube.table
            assert table.canonical_order().tolist() == np.argsort(
                packed_rows(table.sa_masks, table.ca_masks), kind="stable"
            ).tolist()

    @pytest.mark.parametrize("n_dates", [5, 20])
    def test_trend_holds_one_cube(self, states, tmp_path, n_dates):
        root = tmp_path / "tl"
        _publish_cycle(root, states, n_dates)
        timeline = CubeTimeline(root)
        service = CubeService(timeline)
        series = service.trend("D", sa={"g": "g0"})
        assert [date for date, _ in series] == list(range(n_dates))
        # The walk ended on the served cube, which it did not re-open.
        for holder in (timeline, service):
            assert list(map(id, reachable_cubes(holder))) == [
                id(service.cube)
            ]
        app = make_app(root, cache_size=0)
        assert wsgi_get(app, "/trend?index=D&sa=g%3Dg0")[0] == 200
        assert list(map(id, reachable_cubes(app))) == [id(app.service.cube)]

    def test_walk_composes_each_date_once(self, states, tmp_path,
                                         count_opens):
        root = tmp_path / "tl"
        _publish_cycle(root, states, 20)
        chains = [delta_chain_length(root / str(d)) for d in range(20)]
        count_opens["loads"].clear()
        count_opens["composes"].clear()
        for date, cube in CubeTimeline(root):
            assert check_same_cells(
                states[date % len(states)].cube, cube, atol=0.0
            ) == []
        # One directory and at most one hop per date.
        assert len(count_opens["loads"]) == 20
        assert len(count_opens["composes"]) == sum(
            1 for chain in chains if chain
        )


class TestRefreshWork:
    """A refresh composes only the dates published since the served one."""

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize(
        "served, published, full, loads, composes",
        [
            # A delta on the served date: one directory, one hop.
            ([0, 1], [2], False, 1, 1),
            # Two dates published, neither served yet: two hops.
            ([0], [1, 2], False, 2, 2),
            # A checkpoint: one directory, nothing composed.
            ([0, 1], [2], True, 1, 0),
        ],
        ids=["delta_on_served", "two_unserved", "checkpoint"],
    )
    def test_refresh_loads_only_new_dates(
        self, states, tmp_path, count_opens, mmap, served, published,
        full, loads, composes,
    ):
        root = tmp_path / "tl"
        _publish(root, states, served)
        app = make_app(root, mmap=mmap)
        _publish(root, states, published, full=full)
        count_opens["loads"].clear()
        count_opens["composes"].clear()
        status, _, body = wsgi_get(app, "/refresh", method="POST")
        assert (status, body) == (200, b'{"refreshed":true}')
        assert len(count_opens["loads"]) == loads
        assert {d.name for d in count_opens["loads"]} == {
            str(d) for d in published
        }
        assert len(count_opens["composes"]) == composes

        latest = published[-1]
        assert app.service.date == latest
        reference = CubeTimeline(root, mmap=mmap).at(latest)
        refreshed = app.service.cube
        assert check_same_cells(refreshed, reference, atol=0.0) == []
        assert table_digest(refreshed.table) == table_digest(reference.table)
        fresh = make_app(root, mmap=mmap)
        for query in TIMELINE_QUERIES:
            status, _, body = wsgi_get(app, query)
            fresh_status, _, fresh_body = wsgi_get(fresh, query)
            assert status == fresh_status == 200, query
            assert _comparable(query, body) == \
                _comparable(query, fresh_body), query

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("n_new", [1, 2])
    def test_trend_after_refresh_loads_nothing_more(
        self, states, tmp_path, count_opens, mmap, n_new
    ):
        """A refreshed service takes its predecessor's trend changes and
        adds each new date's, so after one trend on a warm app, a
        publish and a refresh, trends load no data file beyond those
        the refresh composed, and answer as a fresh app does."""
        root = tmp_path / "tl"
        published = _cycle(root, states, 20 + n_new)
        for _ in range(20):
            next(published)
        app = make_app(root, mmap=mmap)
        queries = [
            "/trend?index=D&sa=g%3Dg0&ca=r%3Dr0",
            "/trend?index=D&sa=g%3Dg1",
            "/trend?index=A&ca=s%3Ds2",
            "/trend?index=D",
        ]
        assert wsgi_get(app, queries[0])[0] == 200
        for _ in published:
            pass
        count_opens["loads"].clear()
        status, _, body = wsgi_get(app, "/refresh", method="POST")
        assert (status, body) == (200, b'{"refreshed":true}')
        assert sorted(d.name for d in count_opens["loads"]) == [
            str(20 + i) for i in range(n_new)
        ]
        count_opens["loads"].clear()
        count_opens["composes"].clear()
        bodies = [wsgi_get(app, query) for query in queries]
        assert count_opens == {"loads": [], "composes": []}
        fresh = make_app(root, mmap=mmap)
        for query, answer in zip(queries, bodies):
            assert answer[0] == 200
            assert len(json.loads(answer[2])) == 20 + n_new
            assert answer == wsgi_get(fresh, query), query

    def test_refresh_sorts_at_most_the_served_table(
        self, states, tmp_path, argsorted
    ):
        root = tmp_path / "tl"
        _publish(root, states, [0])
        app = make_app(root)
        served = len(app.service.cube)
        for date in (1, 2):
            _publish(root, states, [date])
            own = SnapshotManifest.read(root / str(date)).n_cells
            argsorted.clear()
            status, _, body = wsgi_get(app, "/refresh", method="POST")
            assert (status, body) == (200, b'{"refreshed":true}')
            # The served root is sorted once, when date 1 composes onto
            # it; date 1's order was merged, so date 2 sorts only its
            # own rows.
            assert sorted(argsorted) == sorted(
                [served, own] if date == 1 else [own]
            )

    def test_composed_keys_match_their_masks(
        self, states, tmp_path, monkeypatch
    ):
        import repro.store.snapshot as snapshot_module

        composed = []
        compose = snapshot_module._compose_delta

        def recording(*args):
            table = compose(*args)
            composed.append(table)
            return table

        monkeypatch.setattr(snapshot_module, "_compose_delta", recording)
        root = tmp_path / "tl"
        _publish(root, states, [0])
        app = make_app(root)
        cubes = [states[i].cube for i in (0, 1, 2, 1, 0)]
        for date in range(1, len(cubes)):
            dump_into_timeline(
                root, date, cubes[date], parent_date=date - 1,
                parent=cubes[date - 1],
            )
            assert wsgi_get(app, "/refresh", method="POST")[0] == 200
        assert wsgi_get(app, "/trend?index=D&sa=g%3Dg0")[0] == 200
        # Four refresh hops, then the trend's walk: date 0 opens from
        # disk, dates 1-3 compose one hop each onto the date before, and
        # date 4 is the served cube.
        assert len(composed) == 7
        for table in composed:
            n_words = table.sa_masks.shape[1]
            for part, masks in enumerate((table.sa_masks, table.ca_masks)):
                assert np.array_equal(CellTable._pack_parts(
                    [key[part] for key in table.keys], n_words
                ), masks)



class TestPublishWork:
    """Work counts of a publish."""

    def test_a_publish_hashes_one_table(self, states, tmp_path,
                                        monkeypatch):
        """Each publish hashes the table it writes, once: the parent it
        checks was hashed when it was published, and keeps its digest."""
        import repro.store.snapshot as snapshot_module

        hashed = []
        hash_rows = snapshot_module._hash_rows

        def counting(table, order):
            hashed.append(table)
            return hash_rows(table, order)

        monkeypatch.setattr(snapshot_module, "_hash_rows", counting)
        cubes = [
            SegregationCube(CellTable.from_arrays(state.cube.table.arrays),
                            state.cube.dictionary, state.cube.metadata)
            for state in states
        ]
        root = tmp_path / "tl"
        for date, cube in enumerate(cubes):
            hashed.clear()
            dump_into_timeline(
                root, date, cube, parent_date=date - 1 if date else None,
                parent=cubes[date - 1] if date else None,
            )
            assert hashed == [cube.table]
        assert [delta_chain_length(root / str(d)) for d in DATES] == [0, 1, 2]
        for date, cube in enumerate(cubes):
            assert table_digest(cube.table) == SnapshotManifest.read(
                root / str(date)
            ).content_digest
        assert not cubes[0].table.population.flags.writeable


class TestInfoWork:
    """One ``/info`` on a timeline walks each date's delta chain once."""

    def test_info_walks_each_chain_once(self, states, tmp_path, monkeypatch):
        from repro.store.manifest import SnapshotManifest

        root = tmp_path / "timeline"
        _publish(root, states, range(len(states)))
        service = CubeService(root)
        dates = service.info()["timeline"]["dates"]
        chains = [delta_chain_length(root / str(d)) for d in dates]
        assert chains == list(range(len(dates)))   # 0, 1, 2 hops

        read = SnapshotManifest.read.__func__
        reads = []

        def counting(cls, path):
            reads.append(path)
            return read(cls, path)

        monkeypatch.setattr(SnapshotManifest, "read", classmethod(counting))
        info = service.info()
        # Per date: one walk (chain + 1 manifests); sizing a date's own
        # files reads none, and the served date's ``disk`` reuses its
        # entry.  Walking twice would read sum(chains) + len(dates)
        # more, and the served date's own walk more again.
        assert len(reads) == sum(c + 1 for c in chains)
        per_date = info["timeline"]["per_date"]
        assert [per_date[str(d)]["delta_chain_length"] for d in dates] \
            == chains
        assert info["staleness"]["chain_lengths"] == {
            str(d): c for d, c in zip(dates, chains)
        }
        assert info["disk"] == per_date[str(dates[-1])]

class TestKeyDecoding:
    """Work counts: an opened cube decodes a row's key only when a query
    needs that row's key."""

    def test_open_decodes_no_key(self, states, timeline_dir, tmp_path,
                                 decoded):
        dump_snapshot(states[0].cube, tmp_path / "snap")
        for source in (tmp_path / "snap", timeline_dir):
            assert len(make_app(source).service.cube) > 0
        assert decoded == []

    def test_top_decodes_only_the_rows_it_ranks(self, timeline_dir,
                                                decoded):
        app = make_app(timeline_dir)
        assert wsgi_get(app, TOP_QUERY)[0] == 200
        # The rows the ranking sorts: the 10 best proper cells and every
        # cell tied with the 10th value.
        table = app.service.cube.table
        col = table.columns["D"]
        ranked = -col[
            ~table.context_only_mask() & ~np.isnan(col)
            & (table.n_units >= 2)
        ]
        tenth = np.partition(ranked, 9)[9]
        sorted_rows = int((ranked <= tenth).sum())
        assert sorted_rows < len(table) // 4
        assert 10 <= len(decoded) <= sorted_rows

    def test_refresh_decodes_no_key(self, states, tmp_path, count_opens,
                                    decoded):
        root = tmp_path / "tl"
        _publish(root, states, [0, 1])
        app = make_app(root)
        _publish(root, states, [2])
        count_opens["composes"].clear()
        status, _, body = wsgi_get(app, "/refresh", method="POST")
        assert (status, body) == (200, b'{"refreshed":true}')
        assert len(count_opens["composes"]) == 1
        assert decoded == []

    def test_trend_decodes_no_key(self, timeline_dir, decoded):
        app = make_app(timeline_dir)
        status, _, body = wsgi_get(app, "/trend?index=D&sa=g%3Dg0&ca=r%3Dr0")
        assert status == 200
        assert len(json.loads(body)) == len(DATES)
        assert decoded == []

    @pytest.mark.parametrize("mode", ["all", "closed"])
    def test_updates_decode_no_key_and_pack_only_fresh_rows(
        self, mode, monkeypatch, decoded
    ):
        engine, dated = _engine_and_dates(mode)
        state = engine.build_at(dated[0][1], dated[0][0])
        packed = []
        pack = CellTable._pack_parts

        def counting(parts, n_words):
            packed.append(len(parts))
            return pack(parts, n_words)

        monkeypatch.setattr(CellTable, "_pack_parts", staticmethod(counting))
        fresh = 0
        for date, valid in dated[1:]:
            state = engine.update(state, valid, date)
            extra = state.cube.metadata.extra
            assert extra["n_carried_cells"] > 0
            fresh += extra["n_recomputed_cells"]
        assert decoded == []
        # One SA and one CA mask per freshly evaluated row, none for a
        # carried one.
        assert sum(packed) == 2 * fresh


class TestTimelineSerying:
    def test_service_routes_to_latest_by_default(self, states, timeline_dir):
        service = CubeService(timeline_dir)
        assert service.date == DATES[-1]
        assert service.dates() == list(DATES)
        assert len(service.cube) == len(states[-1].cube)
        info = service.info()
        assert info["timeline"]["served_date"] == DATES[-1]

    def test_service_routes_to_requested_date(self, states, timeline_dir):
        service = CubeService(timeline_dir, date=DATES[0])
        assert check_same_cells(states[0].cube, service.cube,
                                atol=0.0) == []

    def test_date_on_single_snapshot_rejected(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "snap")
        with pytest.raises(SnapshotError, match="timeline"):
            CubeService(tmp_path / "snap", date=3)
        with pytest.raises(SnapshotError, match="timeline"):
            CubeService(states[0].cube, date=3)

    def test_service_trend_walks_all_dates(self, timeline_dir):
        service = CubeService(timeline_dir)
        series = service.trend("D", sa={"g": "g0"})
        assert [date for date, _ in series] == list(DATES)
        assert all(np.isfinite(v) or np.isnan(v) for _, v in series)

    def test_trend_requires_timeline(self, states, tmp_path):
        dump_snapshot(states[0].cube, tmp_path / "snap")
        service = CubeService(tmp_path / "snap")
        with pytest.raises(SnapshotError, match="timeline"):
            service.trend("D", sa={"g": "g0"})

    def test_cli_top_with_date(self, timeline_dir, capsys):
        assert serve_main(
            [str(timeline_dir), "top", "--date", "1", "--json", "-k", "3"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3

    def test_cli_trend(self, timeline_dir, capsys):
        assert serve_main(
            [str(timeline_dir), "trend", "--index", "D",
             "--sa", "g=g0", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["date"] for entry in payload] == list(DATES)

    def test_cli_info_shows_timeline(self, timeline_dir, capsys):
        assert serve_main([str(timeline_dir), "info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["timeline"]["dates"] == list(DATES)


def _coordinates(timeline):
    """``(sa, ca)`` coordinates of every key some date of ``timeline``
    holds, each attribute mapped to the list of its values."""
    found = {}
    for _, cube in timeline:
        for key in cube.table.keys:
            parts = []
            for part in key:
                coordinates = {}
                for item_id in sorted(part):
                    item = cube.dictionary.item(item_id)
                    coordinates.setdefault(item.attribute, []).append(
                        item.value
                    )
                parts.append(coordinates)
            found[repr(parts)] = tuple(parts)
    return list(found.values())


def _answer(trend, index_name, sa, ca):
    """A trend's values as an array, or its error's text."""
    try:
        return np.array([value for _, value in trend(index_name, sa, ca)])
    except CubeError as exc:
        return str(exc)


class TestTrendChanges:
    """A service's trends read one walk's per-date changes."""

    @staticmethod
    def _without(cube, rows):
        """``cube`` without the cells at ``rows``."""
        keep = np.ones(len(cube), dtype=bool)
        keep[rows] = False
        arrays = cube.table.arrays
        return SegregationCube(CellTable.from_arrays(TableArrays(
            population=arrays.population[keep],
            minority=arrays.minority[keep],
            n_units=arrays.n_units[keep],
            sa_masks=arrays.sa_masks[keep],
            ca_masks=arrays.ca_masks[keep],
            columns={name: column[keep]
                     for name, column in arrays.columns.items()},
        )), cube.dictionary, cube.metadata)

    @pytest.fixture(params=["one_vocabulary", "cells_come_and_go",
                            "vocabulary_change"])
    def trend_root(self, request, states, other_states, tmp_path):
        root = tmp_path / "tl"
        if request.param == "one_vocabulary":
            _publish_cycle(root, states, 20)   # checkpoints included
        elif request.param == "cells_come_and_go":
            cubes = [
                states[0].cube,
                self._without(states[1].cube, slice(0, None, 3)),
                states[2].cube,
                self._without(states[0].cube, slice(1, None, 4)),
                self._without(states[0].cube, slice(1, None, 4)),
                self._without(states[1].cube, slice(0, 40)),
                # 50 cells, fewer than its changes: held whole.
                self._without(states[2].cube, slice(50, None)),
            ]
            for date, cube in enumerate(cubes):
                dump_into_timeline(
                    root, date, cube,
                    parent_date=date - 1 if date else None,
                    parent=cubes[date - 1] if date else None,
                )
        else:
            # Date 3 lacks half its cells, so some cells of date 2 are
            # absent under the new vocabulary.
            _publish(root, states, [0, 1, 2])
            half = self._without(other_states[0].cube, slice(0, None, 2))
            dump_into_timeline(root, 3, half)
            dump_into_timeline(root, 4, other_states[1].cube,
                               parent_date=3, parent=half)
        return root

    def test_trends_match_each_dates_cube(self, trend_root):
        cubes = list(CubeTimeline(trend_root))

        def reference(index_name, sa, ca):
            return [(date, cube.value(index_name, sa=sa, ca=ca))
                    for date, cube in cubes]

        service = CubeService(trend_root)
        queries = _coordinates(CubeTimeline(trend_root))
        assert len(queries) > 50
        for i, (sa, ca) in enumerate(queries):
            for index_name in ("D", "A") if i % 4 else ("D", "A", "nope"):
                want = _answer(reference, index_name, sa, ca)
                got = _answer(service.trend, index_name, sa, ca)
                if isinstance(want, str):
                    assert got == want
                else:
                    np.testing.assert_array_equal(got, want)

    def test_changes_hold_what_each_date_changed(self, trend_root):
        entries = timeline_changes(CubeTimeline(trend_root))
        dates = timeline_dates(trend_root)
        assert [date for date, _, _ in entries] == dates
        whole = [date for date, vocabulary, _ in entries
                 if vocabulary is not None]
        assert whole == {20: [0], 7: [0, 6], 5: [0, 3]}[len(dates)]
        cubes = dict(CubeTimeline(trend_root))
        for date, vocabulary, cells in entries:
            if vocabulary is not None:
                assert table_digest(cells) == table_digest(cubes[date].table)
                continue
            now = cubes[date].table
            before = cubes[dates[dates.index(date) - 1]].table
            now_keys = set(packed_rows(now.sa_masks, now.ca_masks).tolist())
            before_keys = set(
                packed_rows(before.sa_masks, before.ca_masks).tolist()
            )
            changed = packed_rows(cells.sa_masks, cells.ca_masks).tolist()
            # Every key that came or went is among the changes.
            assert now_keys ^ before_keys <= set(changed)
            assert len(cells) < len(now)

    def test_recorded_changes_equal_a_row_by_row_diff(self, trend_root):
        walked = CubeTimeline(trend_root)
        previous, recorded_hops = None, 0
        for date, cube in walked:
            if previous is not None:
                recorded_hops += cube.table.changes_since(
                    previous.table
                ) is not None
                # Opened apart, the two dates' tables are compared row
                # by row; walked, the later one knows what it composed.
                apart = [open_snapshot(trend_root / str(d))
                         for d in (previous_date, date)]
                assert apart[1].table.changes_since(apart[0].table) is None
                recorded = changed_cells(cube, previous)
                compared = changed_cells(apart[1], apart[0])
                assert (recorded is None) == (compared is None)
                if recorded is not None:
                    for name, array in vars(recorded.arrays).items():
                        other = getattr(compared.arrays, name)
                        if name == "columns":
                            assert list(array) == list(other)
                            for column in array:
                                np.testing.assert_array_equal(
                                    array[column], other[column]
                                )
                        else:
                            np.testing.assert_array_equal(array, other)
            previous, previous_date = cube, date
        assert recorded_hops >= 2

    def test_later_trends_open_nothing(self, trend_root, count_opens):
        service = CubeService(trend_root)
        queries = _coordinates(CubeTimeline(trend_root))[:20]
        service.trend("D", *queries[0])
        count_opens["loads"].clear()
        count_opens["composes"].clear()
        for sa, ca in queries[1:]:
            _answer(service.trend, "D", sa, ca)
        assert count_opens == {"loads": [], "composes": []}


class TestTimelineSeries:
    def test_series_align_across_dates(self, timeline_dir):
        timeline = CubeTimeline(timeline_dir)
        series = timeline_series(timeline)
        assert series
        for entry in series:
            assert entry.dates == DATES
            assert len(entry.values) == len(DATES)
            assert int((~np.isnan(entry.values)).sum()) >= 2
        # Sorted by spread, biggest movers first.
        spreads = [s.spread for s in series if not np.isnan(s.spread)]
        assert spreads == sorted(spreads, reverse=True)

    def test_series_values_match_cube_cells(self, states, timeline_dir):
        timeline = CubeTimeline(timeline_dir)
        series = timeline_series(timeline)
        by_description = {s.description: s for s in series}
        cube = states[0].cube
        table = cube.table
        col = table.columns["D"]
        checked = 0
        for i in np.flatnonzero(~np.isnan(col))[:10]:
            from repro.cube.compare import _aligned_key, describe_aligned

            description = describe_aligned(_aligned_key(cube, table.keys[i]))
            entry = by_description.get(description)
            if entry is None:   # defined at fewer than two dates
                continue
            position = entry.dates.index(DATES[0])
            assert entry.values[position] == float(col[i])
            assert entry.populations[position] == int(table.population[i])
            checked += 1
        assert checked > 0

    def test_plain_pairs_accepted(self, states, timeline_dir):
        pairs = [(s.date, s.cube) for s in states]
        series = timeline_series(pairs)
        assert [s.description for s in series] == [
            s.description for s in timeline_series(CubeTimeline(timeline_dir))
        ]

    def test_min_minority_guard(self, timeline_dir):
        timeline = CubeTimeline(timeline_dir)
        strict = timeline_series(timeline, min_minority=10 ** 9)
        assert strict == []

    @pytest.mark.parametrize("min_minority", [0, 8])
    def test_series_match_per_row_reference(self, timeline_dir,
                                            min_minority):
        got = timeline_series(CubeTimeline(timeline_dir), min_minority)
        assert got
        assert series_values(got) == series_values(timeline_series_reference(
            CubeTimeline(timeline_dir), min_minority
        ))

    @staticmethod
    def _distinct_keys(timeline, runs):
        """Distinct packed keys of the rows a series reads, per run."""
        total = 0
        for run in runs:
            keys = set()
            for date in run:
                table = timeline.at(date).table
                rows = np.flatnonzero(~np.isnan(table.columns["D"]))
                keys.update(packed_rows(
                    table.sa_masks[rows], table.ca_masks[rows]
                ).tolist())
            total += len(keys)
        return total

    def test_vocabulary_change_at_a_checkpoint(
        self, states, other_states, tmp_path, decoded
    ):
        root = tmp_path / "tl"
        _publish(root, states, [0, 1, 2])
        dump_into_timeline(root, 3, other_states[0].cube)
        dump_into_timeline(root, 4, other_states[1].cube, parent_date=3,
                           parent=other_states[0].cube)
        assert delta_chain_length(root / "4") == 1
        timeline = CubeTimeline(root)
        assert len(timeline.at(2).dictionary) != len(
            timeline.at(3).dictionary
        )
        distinct = self._distinct_keys(timeline, [(0, 1, 2), (3, 4)])
        got = timeline_series(CubeTimeline(root))
        # Each distinct key decodes once in each run of dates that
        # share one vocabulary.
        assert 0 < len(decoded) <= distinct
        expected = timeline_series_reference(CubeTimeline(root))
        assert series_values(got) == series_values(expected)
        # Series align across the change: some span both vocabularies.
        assert any(
            not np.isnan(s.values[0]) and not np.isnan(s.values[-1])
            for s in got
        )

    def test_each_key_decodes_once_per_chain(
        self, states, tmp_path, decoded
    ):
        # Twenty dates over one vocabulary, in chains: a checkpoint
        # decodes the vocabulary again, into a new object, so the memo
        # starts again there.
        root = tmp_path / "tl"
        _publish_cycle(root, states, 20)
        chains = [delta_chain_length(root / str(d)) for d in range(20)]
        starts = [d for d, chain in enumerate(chains) if chain == 0]
        assert len(starts) >= 2
        runs = [range(a, b) for a, b in zip(starts, starts[1:] + [20])]
        timeline = CubeTimeline(root)
        distinct = self._distinct_keys(timeline, runs)
        got = timeline_series(CubeTimeline(root))
        assert 0 < len(decoded) <= distinct
        assert series_values(got) == series_values(
            timeline_series_reference(CubeTimeline(root))
        )


#: The queries the interleaving test races, each asked of every app.
RACED_QUERIES = (
    TOP_QUERY,
    "/trend?index=D&sa=g%3Dg0&ca=r%3Dr0",
    "/trend?index=D&sa=g%3Dg1",
)


class TestWalkInterleavings:
    """Trends, refreshes, restarts and ``/top`` race a publisher.

    The invariant, stated once as :meth:`_lone_answer`: every body a
    request returns equals the body a lone request returns for the same
    served date, and that date lies between ``app.service.date`` read
    just before the request and just after it.  A cached app pairs its
    service with its cache generation, so no cached body of an earlier
    date answers once the app names a later one.
    """

    N_DATES = 12

    @staticmethod
    def _lone_answers(states, root, n_dates):
        """``{date: {query: (status, body)}}`` of a lone, cache-off app
        over the timeline as it stood right after ``date``'s publish."""
        answers = {}
        for date in _cycle(root, states, n_dates):
            app = make_app(root, cache_size=0)
            answers[date] = {
                query: wsgi_get(app, query)[::2] for query in RACED_QUERIES
            }
        return answers

    @staticmethod
    def _lone_answer(answers, served, query, answer):
        """True when ``answer`` is a lone request's for a date in
        ``served`` (the dates the app served while the request ran)."""
        return any(answers[date][query] == answer for date in served)

    def test_requests_answer_as_a_lone_request_does(self, states,
                                                    tmp_path):
        answers = self._lone_answers(states, tmp_path / "ref",
                                     self.N_DATES)
        root = tmp_path / "live"
        dates = _cycle(root, states, self.N_DATES)
        next(dates)
        cached = make_app(root)
        plain = make_app(root, cache_size=0)
        published = threading.Event()
        seen = []   # (served dates, query, answer)
        errors = []

        def ask(app, query):
            before = app.service.date
            answer = wsgi_get(app, query)[::2]
            after = app.service.date
            seen.append((range(before, after + 1), query, answer))

        def loop(step):
            def run():
                try:
                    while True:
                        done = published.is_set()
                        step()
                        if done:
                            return
                except Exception as exc:   # reported below
                    errors.append(exc)
            return threading.Thread(target=run)

        def publish():
            for _ in dates:
                pass
            published.set()

        def refresh():
            for app in (cached, plain):
                assert wsgi_get(app, "/refresh", method="POST")[0] == 200

        def restart():
            app = make_app(root, cache_size=0)
            for query in RACED_QUERIES:
                ask(app, query)

        threads = [
            loop(refresh),
            # Two trends on one service, and one behind the cache.
            loop(lambda: ask(plain, RACED_QUERIES[1])),
            loop(lambda: ask(plain, RACED_QUERIES[2])),
            loop(lambda: ask(cached, RACED_QUERIES[1])),
            loop(lambda: [ask(app, TOP_QUERY) for app in (cached, plain)]),
            loop(restart),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            publish()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            published.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for app in (cached, plain):
            refresh()
            assert app.service.date == self.N_DATES - 1
            for query in RACED_QUERIES:
                ask(app, query)
        served = {date for dates, _, _ in seen for date in dates}
        assert len(served) > 2
        assert {query for _, query, _ in seen} == set(RACED_QUERIES)
        for dates, query, answer in seen:
            assert answer[0] == 200, (query, answer)
            assert self._lone_answer(answers, dates, query, answer), (
                list(dates), query)
