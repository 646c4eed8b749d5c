"""Tests of the timeline publish rule, the timeline manifest, and staleness.

The contract: each publish decides once whether its date is a delta on
the parent date or a full snapshot — full when the parent's chain
already has ``MAX_CHAIN`` hops, or when the delta's own bytes reach
``MIN_BYTE_RATIO`` of its chain root's — and never touches a date
published before it.  Every date reads back bit-identical through
``CubeTimeline.at``, a crash at any manifest write leaves the timeline
readable, and ``timeline.json`` records what is on disk.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import random_final_table
from repro.errors import SnapshotError
from repro.itemsets.transactions import encode_table
from repro.serve.service import CubeService
from repro.store import (
    MANIFEST_NAME,
    TIMELINE_MANIFEST_NAME,
    CubeTimeline,
    delta_chain_length,
    dump_into_timeline,
    open_snapshot,
    read_timeline_manifest,
    snapshot_disk_bytes,
    timeline_dates,
    validate_snapshot,
)
from repro.store import timeline as timeline_module
from repro.store.manifest import DATA_NAME
from repro.store.timeline import MAX_CHAIN, MIN_BYTE_RATIO

DATES = (0, 1, 2, 3)
LIMITS = {"min_population": 20, "min_minority": 5,
          "max_sa_items": 2, "max_ca_items": 2}

#: Two full chains: chain lengths run 0..MAX_CHAIN twice.
N_SERIES_DATES = 2 * MAX_CHAIN + 2


@pytest.fixture(scope="module")
def series():
    """A long low-churn closed-mode series, plus a cube far from it.

    Only rows of the ``r0 & s0`` context with an empty multi-valued CA
    set sit out, ~1% per date, so every delta stays well under
    ``MIN_BYTE_RATIO`` of its root and only the chain rule writes full
    dates.  ``far`` drops half the rows of the ``r0`` context: more
    than half of its cells differ from every date of the series, so its
    delta trips the byte rule, yet it shares the cells of the other
    ``r`` contexts (a delta of it stores fewer rows than a full dump).
    """
    n_rows = 2000
    table, schema = random_final_table(
        n_rows, 12, sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3}, multi_valued_ca={"mv": 3},
        seed=5, skew=0.5,
    )
    db = encode_table(table, schema)
    pool_mask = (table.categorical("r").mask_eq("r0")
                 & table.categorical("s").mask_eq("s0"))
    pool_mask &= np.fromiter(
        (len(v) == 0 for v in table.multivalued("mv").values()),
        dtype=bool, count=n_rows,
    )
    pool = np.flatnonzero(pool_mask)
    rng = np.random.default_rng(5)
    dated = []
    for date in range(N_SERIES_DATES):
        mask = np.ones(n_rows, dtype=bool)
        mask[rng.choice(pool, size=n_rows // 100, replace=False)] = False
        dated.append((date, mask))
    engine = TemporalCubeEngine(
        db, SegregationDataCubeBuilder(engine="incremental", mode="closed",
                                       **LIMITS)
    )
    far_mask = ~(table.categorical("r").mask_eq("r0")
                 & (np.arange(n_rows) % 2 == 0))
    far = SegregationDataCubeBuilder(
        mode="closed", **LIMITS
    ).build_from_transactions(db.restrict(far_mask))
    return SimpleNamespace(states=engine.run(dated), far=far)


def _dump(states, root):
    root.mkdir(parents=True, exist_ok=True)
    previous = None
    for state in states:
        dump_into_timeline(
            root, state.date, state.cube,
            parent_date=None if previous is None else previous.date,
            parent=None if previous is None else previous.cube,
        )
        previous = state
    return root


def _publish_far(series, root):
    """Publish date 0 of the series, then ``far`` as date 1 on it."""
    parent = series.states[0].cube
    dump_into_timeline(root, 0, parent)
    dump_into_timeline(root, 1, series.far, parent_date=0, parent=parent)
    return root


def _chain_model(n_dates: int, max_chain: int) -> "list[int]":
    """Chain lengths the chain rule alone gives a run of dates."""
    chains: "list[int]" = []
    for date in range(n_dates):
        full = date == 0 or chains[-1] >= max_chain
        chains.append(0 if full else chains[-1] + 1)
    return chains


@pytest.fixture()
def timeline_dir(series, tmp_path):
    return _dump(series.states[:len(DATES)], tmp_path / "timeline")


@pytest.fixture(scope="module")
def series_dir(series, tmp_path_factory):
    return _dump(series.states, tmp_path_factory.mktemp("series") / "tl")


@pytest.fixture(scope="module")
def far_dir(series, tmp_path_factory):
    return _publish_far(series, tmp_path_factory.mktemp("far") / "tl")


class TestCompactionPolicy:
    """Which dates the publish rule writes full."""

    def test_chain_trigger(self, series_dir):
        dates = timeline_dates(series_dir)
        assert dates == list(range(N_SERIES_DATES))
        chains = [delta_chain_length(series_dir / str(d)) for d in dates]
        assert chains == _chain_model(N_SERIES_DATES, MAX_CHAIN)
        assert chains[MAX_CHAIN] == MAX_CHAIN

    def test_byte_ratio_trigger(self, series, far_dir, tmp_path,
                                monkeypatch):
        assert delta_chain_length(far_dir / "1") == 0
        # The byte rule, not the chain rule, made it full: with the
        # ratio out of reach the same publish writes a delta, whose
        # own bytes do reach the ratio of the root's.
        monkeypatch.setattr(timeline_module, "MIN_BYTE_RATIO", math.inf)
        root = _publish_far(series, tmp_path / "delta")
        assert delta_chain_length(root / "1") == 1
        assert snapshot_disk_bytes(root / "1") >= MIN_BYTE_RATIO * (
            snapshot_disk_bytes(root / "0")
        )
        assert check_same_cells(
            series.far, open_snapshot(root / "1"), atol=0.0
        ) == []


class TestCompactDate:
    """A date written full, and what ``timeline.json`` records of it."""

    def test_compact_rewrites_as_full_root(self, series, far_dir):
        # The byte-triggered publish writes its date once, as a full
        # snapshot: no superseded delta array is in it.
        full = far_dir / "1"
        assert delta_chain_length(full) == 0
        assert not [name for name in validate_snapshot(full).arrays
                    if name.startswith("superseded")]
        assert sorted(f.name for f in full.iterdir()) == [
            DATA_NAME, MANIFEST_NAME
        ]
        entry = read_timeline_manifest(far_dir)["dates"]["1"]
        assert entry == {"chain_length": 0,
                         "own_bytes": snapshot_disk_bytes(full)}
        assert check_same_cells(
            series.far, open_snapshot(full), atol=0.0
        ) == []

    def test_policy_decides_and_records(self, series_dir):
        manifest = read_timeline_manifest(series_dir)["dates"]
        assert set(manifest) == {str(d) for d in range(N_SERIES_DATES)}
        for date in timeline_dates(series_dir):
            assert manifest[str(date)] == {
                "chain_length": delta_chain_length(series_dir / str(date)),
                "own_bytes": snapshot_disk_bytes(series_dir / str(date)),
            }
        assert manifest[str(MAX_CHAIN + 1)]["chain_length"] == 0


class TestCompactTimeline:
    """A timeline holding checkpoint dates reads back bit-identical."""

    def test_compacted_timeline_round_trips_through_dump(self, series,
                                                        series_dir):
        for mmap in (True, False):
            timeline = CubeTimeline(series_dir, mmap=mmap)
            for state in series.states:
                assert check_same_cells(
                    state.cube, timeline.at(state.date), atol=0.0
                ) == []

    def test_relocatable_after_compaction(self, series, series_dir,
                                          tmp_path):
        moved = shutil.copytree(series_dir, tmp_path / "moved" / "tl")
        timeline = CubeTimeline(moved)
        for state in series.states:
            assert check_same_cells(
                state.cube, timeline.at(state.date), atol=0.0
            ) == []


class TestPublishRule:
    def test_published_dates_are_never_rewritten(self, series, tmp_path):
        root = tmp_path / "tl"
        seen: "dict[Path, tuple[int, int, bytes]]" = {}
        previous = None
        publishes = [(s.date, s.cube) for s in series.states]
        publishes.append((N_SERIES_DATES, series.far))   # byte-triggered
        for date, cube in publishes:
            dump_into_timeline(
                root, date, cube,
                parent_date=None if previous is None else previous[0],
                parent=None if previous is None else previous[1],
            )
            for file in (root / str(date)).iterdir():
                stat = file.stat()
                seen[file] = (stat.st_ino, stat.st_mtime_ns,
                              file.read_bytes())
            previous = (date, cube)
        assert delta_chain_length(root / str(N_SERIES_DATES)) == 0
        for date, _ in publishes:
            files = set((root / str(date)).iterdir())
            assert files == {f for f in seen if f.parent.name == str(date)}
        for file, (inode, mtime, content) in seen.items():
            stat = file.stat()
            assert (stat.st_ino, stat.st_mtime_ns) == (inode, mtime), file
            assert file.read_bytes() == content, file

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(max_chain=st.sampled_from([0, 1, 2]),
           n_dates=st.integers(min_value=1, max_value=8))
    def test_layout_for_any_max_chain(self, series, max_chain, n_dates):
        with pytest.MonkeyPatch.context() as patch, \
                tempfile.TemporaryDirectory() as scratch:
            patch.setattr(timeline_module, "MAX_CHAIN", max_chain)
            root = _dump(series.states[:n_dates], Path(scratch) / "tl")
            chains = [
                delta_chain_length(root / str(d)) for d in range(n_dates)
            ]
            assert chains == _chain_model(n_dates, max_chain)
            manifest = read_timeline_manifest(root)["dates"]
            assert [
                manifest[str(d)]["chain_length"] for d in range(n_dates)
            ] == chains
            for mmap in (True, False):
                timeline = CubeTimeline(root, mmap=mmap)
                for state in series.states[:n_dates]:
                    assert check_same_cells(
                        state.cube, timeline.at(state.date), atol=0.0
                    ) == []


class TestTimelineManifest:
    def test_publish_records_stats_and_wall_time(self, timeline_dir):
        manifest = read_timeline_manifest(timeline_dir)
        assert manifest["last_publish_at"] is not None
        assert set(manifest["dates"]) == {str(d) for d in DATES}
        for d in DATES:
            entry = manifest["dates"][str(d)]
            assert entry["chain_length"] == d     # 0 full, then 1,2,3
            assert entry["own_bytes"] > 0

    def test_missing_manifest_reads_as_empty(self, tmp_path):
        manifest = read_timeline_manifest(tmp_path)
        assert manifest["last_publish_at"] is None
        assert manifest["dates"] == {}

    def test_corrupt_manifest_raises(self, timeline_dir):
        (timeline_dir / TIMELINE_MANIFEST_NAME).write_text("{nope")
        with pytest.raises(SnapshotError, match="unreadable"):
            read_timeline_manifest(timeline_dir)

    def test_malformed_manifest_raises(self, timeline_dir):
        (timeline_dir / TIMELINE_MANIFEST_NAME).write_text(
            json.dumps({"dates": [1, 2]})
        )
        with pytest.raises(SnapshotError, match="malformed"):
            read_timeline_manifest(timeline_dir)

    def test_manifest_file_is_not_a_date(self, timeline_dir):
        # timeline.json (and the manifest-less directory a crashed
        # publish leaves) must stay invisible to readers.
        (timeline_dir / "4").mkdir()
        assert timeline_dates(timeline_dir) == list(DATES)
        assert CubeTimeline(timeline_dir).dates == list(DATES)

    def test_failed_manifest_replace_keeps_timeline_readable(
        self, series, tmp_path, crash_at
    ):
        # A publish writes through the store's file layer: a delta
        # publish and a byte-triggered full one each replace the date's
        # manifest.json and timeline.json once (the byte rule is decided
        # before anything is written).  Failing each of its os.open,
        # os.writev, os.replace, Path.unlink and os.fsync calls in turn
        # must leave
        # timeline.json parseable, every listed date opening at atol=0
        # and no temporary file behind — and publishing the date again
        # must give the layout of an uninterrupted publish.
        base = _dump(series.states[:3], tmp_path / "base")
        parent = series.states[2].cube
        cube_at = {state.date: state.cube for state in series.states[:3]}

        def publish(root, cube):
            return lambda: dump_into_timeline(
                root, 3, cube, parent_date=2, parent=parent
            )

        def files(root):
            return sorted(
                path.relative_to(root) for path in root.rglob("*")
            )

        for kind, cube, n_replaces, chain in (
            ("delta", series.states[3].cube, 2, 3),
            ("full", series.far, 2, 0),
        ):
            cube_at[3] = cube
            whole = shutil.copytree(base, tmp_path / kind)
            calls = crash_at(publish(whole, cube))
            assert calls.count("replace") == n_replaces
            assert delta_chain_length(whole / "3") == chain
            for crash in range(len(calls)):
                root = shutil.copytree(base, tmp_path / f"{kind}-{crash}")
                crash_at(publish(root, cube), fail=crash)
                json.loads((root / TIMELINE_MANIFEST_NAME).read_text())
                read_timeline_manifest(root)
                for date in timeline_dates(root):
                    reopened = open_snapshot(root / str(date))
                    assert check_same_cells(
                        cube_at[date], reopened, atol=0.0
                    ) == []
                assert not list(root.rglob("*.tmp"))
                publish(root, cube)()
                assert files(root) == files(whole)
                assert check_same_cells(
                    cube, open_snapshot(root / "3"), atol=0.0
                ) == []
                shutil.rmtree(root)


class TestServiceStaleness:
    def test_info_reports_staleness(self, timeline_dir):
        service = CubeService(timeline_dir)
        staleness = service.info()["staleness"]
        assert staleness["latest_date"] == 3
        assert staleness["served_date"] == 3
        assert staleness["dates_behind"] == 0
        assert staleness["last_publish_at"] is not None
        assert staleness["seconds_since_publish"] >= 0.0
        assert staleness["chain_lengths"] == {
            "0": 0, "1": 1, "2": 2, "3": 3
        }

    def test_stale_date_counts_dates_behind(self, timeline_dir):
        service = CubeService(timeline_dir, date=1)
        staleness = service.info()["staleness"]
        assert staleness["served_date"] == 1
        assert staleness["dates_behind"] == 2

    def test_chain_lengths_reflect_compaction(self, series_dir):
        # Date MAX_CHAIN + 1 of the series is a chain-triggered full date.
        staleness = CubeService(series_dir).info()["staleness"]
        model = _chain_model(N_SERIES_DATES, MAX_CHAIN)
        assert staleness["chain_lengths"] == {
            str(date): chain for date, chain in enumerate(model)
        }
        assert staleness["chain_lengths"][str(MAX_CHAIN + 1)] == 0

    def test_snapshot_service_has_no_staleness(self, series, tmp_path):
        from repro.store import dump_snapshot

        dump_snapshot(series.states[0].cube, tmp_path / "snap")
        info = CubeService(tmp_path / "snap").info()
        assert "staleness" not in info
