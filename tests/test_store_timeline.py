"""Tests of delta snapshots, the cube timeline, and timeline serving."""

from __future__ import annotations

import json
import re
import shutil

import numpy as np
import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.compare import timeline_series
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.cube.table import unpack_masks
from repro.data.synthetic import random_temporal_final_table
from repro.errors import SnapshotError
from repro.etl.diff import valid_at
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
from repro.store.snapshot import delta_chain

DATES = (0, 1, 2)
LIMITS = {"min_population": 20, "min_minority": 5,
          "max_sa_items": 2, "max_ca_items": 2}


@pytest.fixture(scope="module")
def states():
    table, schema, starts, ends = random_temporal_final_table(
        n_rows=3000, n_units=12, dates=DATES,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3},
        multi_valued_ca={"mv": 3},
        seed=5, skew=0.5,
    )
    db = encode_table(table, schema)
    engine = TemporalCubeEngine(
        db, SegregationDataCubeBuilder(engine="incremental", **LIMITS)
    )
    return engine.run(
        [(d, valid_at(starts, ends, d)) for d in DATES]
    )


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


def _truncate(file):
    file.write_bytes(file.read_bytes()[:16])


def _edit_manifest(directory, edit):
    payload = json.loads((directory / MANIFEST_NAME).read_text())
    edit(payload)
    (directory / MANIFEST_NAME).write_text(json.dumps(payload))


def _resave(file, change):
    np.save(file, change(np.load(file)))


def _flip_low_bit(values):
    bits = values.view(np.uint64).copy()
    bits[0] ^= np.uint64(1)
    return bits.view(values.dtype)


#: Corruptions of a delta's own directory: ``case -> (corrupt(child),
#: pattern of the SnapshotError message)``.
DELTA_CORRUPTIONS = {
    "missing_own_file": (
        lambda child: (child / "population.npy").unlink(),
        "population.npy",
    ),
    "truncated_own_array": (
        lambda child: _truncate(child / "col_0.npy"), "unreadable",
    ),
    "truncated_superseded_array": (
        lambda child: _truncate(child / "superseded_ca.npy"), "unreadable",
    ),
    "shape_mismatch": (
        lambda child: _resave(
            child / "minority.npy", lambda a: np.zeros(len(a) + 1, a.dtype)
        ),
        "minority.npy",
    ),
    "dtype_mismatch": (
        lambda child: _resave(
            child / "n_units.npy", lambda a: a.astype(np.int32)
        ),
        "n_units.npy",
    ),
    "missing_superseded_entry": (
        lambda child: _edit_manifest(
            child, lambda p: p["arrays"].pop("superseded_sa")
        ),
        "superseded_sa",
    ),
    "malformed_delta_section": (
        lambda child: _edit_manifest(
            child, lambda p: p["delta"].pop("n_superseded")
        ),
        "malformed delta",
    ),
    "superseded_mask_mismatch": (
        lambda child: _resave(
            child / "superseded_sa.npy",
            lambda a: np.full_like(a, 0xDEADBEEF),
        ),
        "mask mismatch",
    ),
    "flipped_own_float": (
        lambda child: _resave(child / "col_0.npy", _flip_low_bit),
        "digest",
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
        masks = np.load(child / "superseded_sa.npy")
        masks = masks.copy()
        masks[0] = np.uint64(0xDEADBEEF)
        np.save(child / "superseded_sa.npy", masks)
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

    def test_parent_value_drift_caught_by_digest(self, states, tmp_path):
        # Keys unchanged, values silently rewritten in the parent after
        # the delta was dumped: only the content digest can catch it.
        dump_snapshot(states[0].cube, tmp_path / "parent")
        child = tmp_path / "child"
        dump_delta_snapshot(states[1].cube, child, tmp_path / "parent")
        populations = np.load(tmp_path / "parent" / "population.npy").copy()
        populations[0] += 1
        np.save(tmp_path / "parent" / "population.npy", populations)
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
        assert len(timeline.latest()) == len(states[-1].cube)

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
    def test_open_loads_each_listed_array_once(
        self, timeline_dir, monkeypatch, mmap
    ):
        chain = delta_chain(timeline_dir / "2")
        assert len(chain) == 3   # two hops onto the full root
        listed = sum(len(validate_snapshot(d).arrays) for d in chain)
        loads = []
        original = np.load

        def counting(file, *args, **kwargs):
            loads.append(file)
            return original(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting)
        open_snapshot(timeline_dir / "2", mmap=mmap)
        assert len(loads) == listed
        assert len(set(loads)) == listed


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

    def test_composed_keys_match_their_masks(
        self, states, tmp_path, monkeypatch
    ):
        import repro.store.snapshot as snapshot_module

        composed = []
        compose = snapshot_module._compose_delta

        def recording(*args):
            table = compose(*args)
            composed.append((table, table.decoded_keys is not None))
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
        # Four refresh hops, then the trend composes dates 1 and 2; each
        # parent was warmed or queried first, so every hop reused keys.
        assert len(composed) == 6
        for table, reused in composed:
            assert reused
            assert table.keys == list(zip(
                unpack_masks(np.asarray(table.sa_masks)),
                unpack_masks(np.asarray(table.ca_masks)),
            ))


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


class TestTimelineSeries:
    def test_series_align_across_dates(self, timeline_dir):
        timeline = CubeTimeline(timeline_dir)
        series = timeline_series(timeline, index_name="D", min_points=2)
        assert series
        for entry in series:
            assert entry.dates == DATES
            assert len(entry.values) == len(DATES)
            assert entry.n_defined >= 2
        # Sorted by spread, biggest movers first.
        spreads = [s.spread for s in series if not np.isnan(s.spread)]
        assert spreads == sorted(spreads, reverse=True)

    def test_series_values_match_cube_cells(self, states, timeline_dir):
        timeline = CubeTimeline(timeline_dir)
        series = timeline_series(timeline, index_name="D", min_points=1)
        by_description = {s.description: s for s in series}
        cube = states[0].cube
        table = cube.table
        col = table.columns["D"]
        checked = 0
        for i in np.flatnonzero(~np.isnan(col))[:10]:
            from repro.cube.compare import _aligned_key, describe_aligned

            description = describe_aligned(_aligned_key(cube, table.keys[i]))
            entry = by_description[description]
            position = entry.dates.index(DATES[0])
            assert entry.values[position] == float(col[i])
            assert entry.populations[position] == int(table.population[i])
            checked += 1
        assert checked > 0

    def test_plain_pairs_accepted(self, states):
        pairs = [(s.date, s.cube) for s in states]
        series = timeline_series(pairs, index_name="D")
        assert series and series[0].index_name == "D"

    def test_min_minority_guard(self, timeline_dir):
        timeline = CubeTimeline(timeline_dir)
        strict = timeline_series(timeline, index_name="D",
                                 min_minority=10 ** 9)
        assert strict == []
