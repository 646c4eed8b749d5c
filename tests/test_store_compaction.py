"""Tests of timeline auto-compaction, the manifest, and staleness.

The contract: compacting a date re-roots it onto a fresh full snapshot
that is *bit-identical* through ``CubeTimeline.at`` — crash-safely (the
old chain stays live until the replacement validates), idempotently
(a full root never re-compacts), and with every measurement the policy
used recorded in ``timeline.json``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import random_temporal_final_table
from repro.errors import SnapshotError
from repro.etl.diff import valid_at
from repro.itemsets.transactions import encode_table
from repro.serve.service import CubeService
from repro.store import (
    TIMELINE_MANIFEST_NAME,
    CompactionPolicy,
    CubeTimeline,
    compact_date,
    compact_timeline,
    delta_chain_length,
    dump_into_timeline,
    open_snapshot,
    read_timeline_manifest,
    timeline_dates,
)
from repro.store.compact import main as compact_main

DATES = (0, 1, 2, 3)
LIMITS = {"min_population": 20, "min_minority": 5,
          "max_sa_items": 2, "max_ca_items": 2}

#: A policy whose only live trigger is chain length — open-latency and
#: byte-ratio thresholds are pushed out of reach so tests stay
#: deterministic on any hardware.
CHAIN_ONLY = dict(max_open_ms=1e9, min_byte_ratio=10.0)


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
        db, SegregationDataCubeBuilder(engine="incremental", mode="closed",
                                       **LIMITS)
    )
    return engine.run([(d, valid_at(starts, ends, d)) for d in DATES])


def _dump(states, root, compact=None):
    root.mkdir(parents=True, exist_ok=True)
    previous = None
    for state in states:
        dump_into_timeline(
            root, state.date, state.cube,
            parent_date=None if previous is None else previous.date,
            parent=None if previous is None else previous.cube,
            compact=compact,
        )
        previous = state
    return root


@pytest.fixture()
def timeline_dir(states, tmp_path):
    return _dump(states, tmp_path / "timeline")


class TestCompactionPolicy:
    def test_full_root_never_compacts(self):
        policy = CompactionPolicy(max_chain=0, max_open_ms=0.0,
                                  min_byte_ratio=0.0)
        assert not policy.should_compact(0, open_ms=1e9, own_bytes=10,
                                         root_bytes=1)

    def test_chain_trigger(self):
        policy = CompactionPolicy(max_chain=3, **CHAIN_ONLY)
        assert not policy.should_compact(3)
        assert policy.should_compact(4)

    def test_open_latency_trigger(self):
        policy = CompactionPolicy(max_chain=10**6, max_open_ms=50.0,
                                  min_byte_ratio=10.0)
        assert not policy.should_compact(1, open_ms=49.0)
        assert policy.should_compact(1, open_ms=51.0)
        assert not policy.should_compact(1, open_ms=None)

    def test_byte_ratio_trigger(self):
        policy = CompactionPolicy(max_chain=10**6, max_open_ms=1e9,
                                  min_byte_ratio=0.5)
        assert not policy.should_compact(1, own_bytes=40, root_bytes=100)
        assert policy.should_compact(1, own_bytes=60, root_bytes=100)
        assert not policy.should_compact(1, own_bytes=60, root_bytes=None)


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
        # timeline.json (and scratch dirs) must stay invisible to readers.
        assert timeline_dates(timeline_dir) == list(DATES)
        assert CubeTimeline(timeline_dir).dates == list(DATES)

    def test_failed_manifest_replace_keeps_timeline_readable(
        self, states, tmp_path, monkeypatch
    ):
        # One compacting publish writes its manifests through os.replace:
        # the delta's manifest.json, the re-rooted one and timeline.json.
        # Failing each replace in turn must leave the previous
        # timeline.json parseable and every listed date openable.
        base = _dump(states[:-1], tmp_path / "base")
        parent, last = states[-2], states[-1]
        cube_at = {state.date: state.cube for state in states}
        real_replace = os.replace
        replaced = []

        def publish(root, fail_at=None):
            def replace(src, dst):
                replaced.append(dst)
                if len(replaced) - 1 == fail_at:
                    raise OSError("injected replace failure")
                real_replace(src, dst)

            replaced.clear()
            monkeypatch.setattr(os, "replace", replace)
            try:
                dump_into_timeline(
                    root, last.date, last.cube,
                    parent_date=parent.date, parent=parent.cube,
                    compact=CompactionPolicy(max_chain=0, **CHAIN_ONLY),
                )
            finally:
                monkeypatch.setattr(os, "replace", real_replace)

        publish(shutil.copytree(base, tmp_path / "whole"))
        n_writes = len(replaced)
        assert n_writes >= 3
        for crash in range(n_writes):
            root = shutil.copytree(base, tmp_path / f"crash-{crash}")
            with pytest.raises(OSError, match="injected"):
                publish(root, fail_at=crash)
            json.loads((root / TIMELINE_MANIFEST_NAME).read_text())
            read_timeline_manifest(root)
            for date in timeline_dates(root):
                reopened = open_snapshot(root / str(date))
                assert check_same_cells(
                    cube_at[date], reopened, atol=0.0
                ) == []
            assert not list(root.rglob("*.tmp"))


class TestCompactDate:
    def test_compact_rewrites_as_full_root(self, states, timeline_dir):
        assert compact_date(timeline_dir, 3, force=True)
        assert delta_chain_length(timeline_dir / "3") == 0
        reopened = open_snapshot(timeline_dir / "3", mmap=False)
        assert check_same_cells(states[3].cube, reopened, atol=0.0) == []

    def test_full_root_is_a_noop_even_forced(self, timeline_dir):
        assert not compact_date(timeline_dir, 0, force=True)
        assert delta_chain_length(timeline_dir / "0") == 0

    def test_compaction_is_idempotent(self, states, timeline_dir):
        assert compact_date(timeline_dir, 2, force=True)
        assert not compact_date(timeline_dir, 2, force=True)
        reopened = open_snapshot(timeline_dir / "2", mmap=False)
        assert check_same_cells(states[2].cube, reopened, atol=0.0) == []

    def test_child_of_compacted_parent_still_resolves(
        self, states, timeline_dir
    ):
        # Re-rooting 2 must leave the 3 -> 2 delta resolvable bit-exactly:
        # superseded keys and digests are row-order independent.
        assert compact_date(timeline_dir, 2, force=True)
        assert delta_chain_length(timeline_dir / "3") == 1
        reopened = open_snapshot(timeline_dir / "3", mmap=False)
        assert check_same_cells(states[3].cube, reopened, atol=0.0) == []

    def test_policy_decides_and_records(self, timeline_dir):
        policy = CompactionPolicy(max_chain=2, **CHAIN_ONLY)
        assert not compact_date(timeline_dir, 1, policy=policy)
        assert compact_date(timeline_dir, 3, policy=policy)
        manifest = read_timeline_manifest(timeline_dir)
        assert manifest["dates"]["1"]["chain_length"] == 1
        assert manifest["dates"]["3"]["chain_length"] == 0

    def test_crash_between_renames_recovers(self, states, timeline_dir):
        # Simulate: old chain renamed away, crash before new root lands.
        (timeline_dir / "3").rename(timeline_dir / "3.pre-compact")
        assert 3 not in timeline_dates(timeline_dir)
        assert compact_date(timeline_dir, 3, force=True)
        reopened = open_snapshot(timeline_dir / "3", mmap=False)
        assert check_same_cells(states[3].cube, reopened, atol=0.0) == []

    def test_stale_scratch_is_cleaned_up(self, states, timeline_dir):
        scratch = timeline_dir / "3.compacting"
        scratch.mkdir()
        (scratch / "junk.npy").write_bytes(b"junk")
        assert compact_date(timeline_dir, 3, force=True)
        assert not scratch.exists()
        reopened = open_snapshot(timeline_dir / "3", mmap=False)
        assert check_same_cells(states[3].cube, reopened, atol=0.0) == []


class TestCompactTimeline:
    def test_force_compacts_every_delta_date(self, states, timeline_dir):
        assert compact_timeline(timeline_dir, force=True) == [1, 2, 3]
        for mmap in (True, False):
            timeline = CubeTimeline(timeline_dir, mmap=mmap)
            for state in states:
                assert check_same_cells(
                    state.cube, timeline.at(state.date), atol=0.0
                ) == []

    def test_ascending_cascade_shortens_descendants_first(
        self, timeline_dir
    ):
        # Compacting 2 (chain 2 > 1) shortens 3's chain to a single hop,
        # so 3 no longer triggers: measured decisions, made in order.
        policy = CompactionPolicy(max_chain=1, **CHAIN_ONLY)
        assert compact_timeline(timeline_dir, policy) == [2]
        assert delta_chain_length(timeline_dir / "3") == 1

    def test_compacted_timeline_round_trips_through_dump(
        self, states, tmp_path
    ):
        policy = CompactionPolicy(max_chain=1, **CHAIN_ONLY)
        root = _dump(states, tmp_path / "inline", compact=policy)
        manifest = read_timeline_manifest(root)
        assert all(
            entry["chain_length"] <= 1
            for entry in manifest["dates"].values()
        )
        timeline = CubeTimeline(root)
        for state in states:
            assert check_same_cells(
                state.cube, timeline.at(state.date), atol=0.0
            ) == []

    def test_relocatable_after_compaction(self, states, timeline_dir,
                                          tmp_path):
        compact_timeline(timeline_dir, force=True)
        moved = tmp_path / "elsewhere" / "tl"
        shutil.copytree(timeline_dir, moved)
        reopened = open_snapshot(moved / "3")
        assert check_same_cells(states[3].cube, reopened, atol=0.0) == []


class TestCompactCli:
    def test_dry_run_touches_nothing(self, timeline_dir, capsys):
        assert compact_main([str(timeline_dir), "--dry-run",
                             "--max-chain", "1",
                             "--max-open-ms", "1e9",
                             "--min-byte-ratio", "10"]) == 0
        out = capsys.readouterr().out
        assert "would compact" in out
        assert delta_chain_length(timeline_dir / "3") == 3

    def test_force_compacts_and_reports(self, states, timeline_dir, capsys):
        assert compact_main([str(timeline_dir), "--force"]) == 0
        out = capsys.readouterr().out
        assert "compacted 3/4 dates" in out
        for d in DATES:
            assert delta_chain_length(timeline_dir / str(d)) == 0
        timeline = CubeTimeline(timeline_dir)
        for state in states:
            assert check_same_cells(
                state.cube, timeline.at(state.date), atol=0.0
            ) == []

    def test_single_date_selection(self, timeline_dir):
        assert compact_main([str(timeline_dir), "--force",
                             "--date", "2"]) == 0
        assert delta_chain_length(timeline_dir / "2") == 0
        assert delta_chain_length(timeline_dir / "1") == 1


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

    def test_chain_lengths_reflect_compaction(self, timeline_dir):
        compact_timeline(timeline_dir, force=True)
        service = CubeService(timeline_dir)
        staleness = service.info()["staleness"]
        assert staleness["chain_lengths"] == {
            "0": 0, "1": 0, "2": 0, "3": 0
        }

    def test_snapshot_service_has_no_staleness(self, states, tmp_path):
        from repro.store import dump_snapshot

        dump_snapshot(states[0].cube, tmp_path / "snap")
        info = CubeService(tmp_path / "snap").info()
        assert "staleness" not in info
