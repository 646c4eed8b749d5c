"""Tests of ShardedCubeService: parity with the unsharded service.

The router's contract is *exactness*, not approximation: every query
answered over the shards — top-k rank for rank, slice/children/parents
cell for cell, point values, pivots, per-date trends — must equal the
unsharded CubeService's answer at atol=0, for every sharding scheme.
The concurrency test mirrors the CubeService one: a thread pool
hammers a cold router and every answer must match the single-threaded
reference.
"""

from __future__ import annotations

import math
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cube.builder import SegregationDataCubeBuilder, build_cube
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import random_temporal_final_table
from repro.errors import SnapshotError
from repro.etl.diff import valid_at
from repro.itemsets.transactions import encode_table
from repro.serve.router import ShardedCubeService, open_service
from repro.serve.service import CubeService
from repro.store import dump_snapshot
from repro.store.shards import (
    SHARDS_NAME,
    dump_sharded_into_timeline,
    dump_sharded_snapshot,
)
from repro.store.snapshot import delta_chain
from repro.store.timeline import dump_into_timeline


@pytest.fixture(scope="module")
def built(schools):
    table, schema = schools
    return build_cube(table, schema, min_population=10, min_minority=3)


@pytest.fixture(scope="module")
def reference(built, tmp_path_factory):
    path = tmp_path_factory.mktemp("router") / "snap"
    dump_snapshot(built, path)
    return CubeService(path)


@pytest.fixture(scope="module", params=["hash", "attribute:city"])
def sharded(built, reference, tmp_path_factory, request):
    path = tmp_path_factory.mktemp("router") / f"sharded-{request.param[:4]}"
    dump_sharded_snapshot(built, path, by=request.param, n_shards=3)
    return ShardedCubeService(path)


LIMITS = {"min_population": 10, "min_minority": 3,
          "max_sa_items": 2, "max_ca_items": 2}


def _dated_cubes(hidden: "str | None" = None) -> "dict[int, object]":
    """The cubes at dates 0-2 of a small temporal table; rows whose
    context attribute ``r`` is ``hidden`` are left out of date 0."""
    dates = (0, 1, 2)
    table, schema, starts, ends = random_temporal_final_table(
        n_rows=2500, n_units=10, dates=dates,
        sa_attributes={"g": 2}, ca_attributes={"r": 3, "s": 3},
        seed=7, skew=0.5,
    )
    db = encode_table(table, schema)
    engine = TemporalCubeEngine(
        db, SegregationDataCubeBuilder(engine="incremental", **LIMITS)
    )
    late = (np.zeros(len(table), dtype=bool) if hidden is None
            else table.categorical("r").mask_eq(hidden))
    states = engine.run([
        (d, valid_at(starts, ends, d) & ~(late & (d == 0))) for d in dates
    ])
    return {state.date: state.cube for state in states}


@pytest.fixture(scope="module")
def dated():
    return _dated_cubes()


@pytest.fixture(scope="module")
def temporal(dated, tmp_path_factory):
    """Three dated cubes dumped both as a plain timeline and as a
    hash-sharded timeline (deltas inside each shard)."""
    root = tmp_path_factory.mktemp("temporal")
    previous = None
    for date, cube in dated.items():
        dump_into_timeline(
            root / "plain", date, cube, parent_date=previous,
            parent=None if previous is None else dated[previous],
        )
        _publish(root / "sharded", date, cube, "hash")
        previous = date
    return root


def _served_dates(router: ShardedCubeService) -> "dict[str, int]":
    """The date each shard of ``router`` serves."""
    return {
        key: shard["timeline"]["served_date"]
        for key, shard in router.info()["shards"].items()
    }


def _cells(service) -> "dict[object, tuple]":
    """Every cell ``service`` serves; index values as exact float bits."""
    return {
        cell.key: (
            cell.population, cell.minority, cell.n_units,
            sorted((name, float(v).hex()) for name, v in cell.indexes.items()),
        )
        for cell in service.slice()
    }


def _publish(root, date, cube, by, n_shards=3):
    return dump_sharded_into_timeline(
        root, date, cube, by=by, n_shards=n_shards,
        parent_date=date - 1 if date else None,
    )


def _crash_on(monkeypatch, owner, name, part):
    """Make ``owner.name`` raise whenever its first argument names a
    path containing ``part``."""
    real = getattr(owner, name)

    def call(first, *args, **kwargs):
        if part in str(first):
            raise OSError(f"injected crash at {part}")
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, call)


def _same_value(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestShardedParity:
    def test_open_service_detects_shards(self, sharded, reference):
        opened = open_service(sharded.root)
        assert isinstance(opened, ShardedCubeService)
        assert isinstance(
            open_service(reference.cube.metadata.extra["snapshot"]["path"]),
            CubeService,
        )

    def test_top_is_bit_exact(self, sharded, reference):
        for k in (1, 5, 10, 100):
            ours = sharded.top("D", k=k, min_minority=5)
            theirs = reference.top("D", k=k, min_minority=5)
            assert [
                (f.rank, f.description, f.value, f.population, f.minority)
                for f in ours
            ] == [
                (f.rank, f.description, f.value, f.population, f.minority)
                for f in theirs
            ]

    def test_point_queries_route_to_owner(self, sharded, reference):
        for sa, ca in [
            (None, None),
            ({"ethnicity": "minority"}, None),
            ({"ethnicity": "minority"}, {"city": "Rivertown"}),
            (None, {"city": "Lakeside"}),
        ]:
            assert _same_value(
                sharded.value("D", sa=sa, ca=ca),
                reference.value("D", sa=sa, ca=ca),
            )
            ours = sharded.cell(sa=sa, ca=ca)
            theirs = reference.cell(sa=sa, ca=ca)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert ours.key == theirs.key
                assert ours.population == theirs.population

    def test_absent_cell_is_none_everywhere(self, sharded, reference):
        # Both values exist in the vocabulary but no school is in two
        # cities: the cell is absent, not an error.
        ca = {"city": ["Rivertown", "Lakeside"]}
        assert reference.cell(ca=ca) is None
        assert sharded.cell(ca=ca) is None
        assert math.isnan(sharded.value("D", ca=ca))

    def test_scans_merge_without_duplicates(self, sharded, reference):
        for query in ("slice", "children", "parents"):
            for coords in (
                {},
                {"sa": {"ethnicity": "minority"}},
                {"ca": {"city": "Rivertown"}},
                {"sa": {"ethnicity": "minority"},
                 "ca": {"city": "Rivertown"}},
            ):
                ours = getattr(sharded, query)(**coords)
                theirs = getattr(reference, query)(**coords)
                assert sorted(
                    (s.depth(), sharded.describe(s.key)) for s in ours
                ) == sorted(
                    (s.depth(), reference.describe(s.key)) for s in theirs
                ), f"{query} {coords} diverged"
                assert len({s.key for s in ours}) == len(ours)

    def test_pivot_is_bit_exact(self, sharded, reference):
        assert (
            sharded.pivot("D", "ethnicity", "city")
            == reference.pivot("D", "ethnicity", "city")
        )
        rows, cols, ours = sharded.pivot_values("D", "ethnicity", "city")
        rrows, rcols, theirs = reference.pivot_values(
            "D", "ethnicity", "city"
        )
        assert (rows, cols) == (rrows, rcols)
        for line, rline in zip(ours, theirs):
            assert all(_same_value(a, b) for a, b in zip(line, rline))

    def test_info_aggregates_across_shards(self, sharded, reference):
        info = sharded.info()
        ref = reference.info()
        assert info["cells"] == ref["cells"]
        assert info["context_only_cells"] == ref["context_only_cells"]
        assert info["defined_cells_per_index"] == (
            ref["defined_cells_per_index"]
        )
        assert info["n_shards"] == sharded.n_shards
        assert set(info["shards"]) == set(sharded.shard_keys)
        assert all(
            "disk" in shard for shard in info["shards"].values()
        )

    def test_concurrent_readers_agree_with_reference(self, sharded):
        """Mirror of the CubeService thread-pool test over the router."""
        expected = {
            "top": [
                (f.rank, f.description, f.value)
                for f in sharded.top("D", k=5, min_minority=5)
            ],
            "slice": [
                s.key for s in sharded.slice(ca={"city": "Rivertown"})
            ],
            "value": sharded.value("D", sa={"ethnicity": "minority"}),
            "pivot": sharded.pivot("D", "ethnicity", "city"),
            "children": {s.key for s in sharded.children()},
        }
        # A fresh, cold router: per-shard lazy state unbuilt.
        service = ShardedCubeService(sharded.root)

        def worker(i: int):
            kind = ("top", "slice", "value", "pivot", "children")[i % 5]
            if kind == "top":
                return kind, [
                    (f.rank, f.description, f.value)
                    for f in service.top("D", k=5, min_minority=5)
                ]
            if kind == "slice":
                return kind, [
                    s.key for s in service.slice(ca={"city": "Rivertown"})
                ]
            if kind == "value":
                return kind, service.value("D", sa={"ethnicity": "minority"})
            if kind == "pivot":
                return kind, service.pivot("D", "ethnicity", "city")
            return kind, {s.key for s in service.children()}

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(200)))
        assert len(results) == 200
        for kind, got in results:
            assert got == expected[kind], f"{kind} diverged under threads"


class TestTemporalSharding:
    def test_trend_coalesces_across_hash_shards(self, temporal):
        plain = CubeService(temporal / "plain")
        sharded = ShardedCubeService(temporal / "sharded")
        for sa in (None, {"g": "g0"}):
            ours = sharded.trend("D", sa=sa)
            theirs = plain.trend("D", sa=sa)
            assert [d for d, _ in ours] == [d for d, _ in theirs]
            assert all(
                _same_value(a, b)
                for (_, a), (_, b) in zip(ours, theirs)
            )

    def test_every_date_routable(self, temporal):
        sharded = ShardedCubeService(temporal / "sharded")
        assert sharded.dates() == [0, 1, 2]
        assert sharded.date == 2
        for date in (0, 1, 2):
            at = ShardedCubeService(temporal / "sharded", date=date)
            ref = CubeService(temporal / "plain", date=date)
            assert [
                (f.rank, f.description, f.value) for f in at.top("D", k=5)
            ] == [
                (f.rank, f.description, f.value) for f in ref.top("D", k=5)
            ]

    def test_refreshed_after_publish(self, temporal, tmp_path):
        import shutil

        root = tmp_path / "grow"
        shutil.copytree(temporal / "sharded", root)
        service = ShardedCubeService(root)
        assert service.refreshed() is None
        # Publish date 3: re-dump the latest cube one date forward.
        latest = ShardedCubeService(root)
        cube2 = CubeService(temporal / "plain").cube
        dump_sharded_into_timeline(
            root, 3, cube2, by="hash", n_shards=3, parent_date=2,
        )
        fresh = service.refreshed()
        assert fresh is not None and fresh.date == 3
        assert service.date == 2  # the old instance never mutates
        assert latest.refreshed() is not None

    def test_refresh_opens_only_the_successor(
        self, temporal, tmp_path, monkeypatch
    ):
        import shutil

        import repro.store.snapshot as snapshot_module

        root = tmp_path / "grow"
        shutil.copytree(temporal / "sharded", root)
        service = ShardedCubeService(root)
        dump_sharded_into_timeline(
            root, 3, CubeService(temporal / "plain").cube,
            by="hash", n_shards=3, parent_date=2,
        )
        opened = []
        load = snapshot_module._load_checked

        def counting(directory, mmap):
            opened.append(directory)
            return load(directory, mmap)

        monkeypatch.setattr(snapshot_module, "_load_checked", counting)
        ShardedCubeService(root)
        successor = sorted(opened)
        opened.clear()
        assert service.refreshed() is not None
        # Exactly the successor router's opens (each shard's date-3
        # chain), and no throwaway service on top.
        assert sorted(opened) == successor
        assert len(successor) == sum(
            len(delta_chain(shard / "3")) for shard in root.glob("shard-*")
        )


class TestPublishedDate:
    """Every shard serves the date ``shards.json`` records as published,
    so a publish cut short never mixes dates."""

    @pytest.mark.parametrize("by, hidden, crash", [
        ("hash", None, (np, "save", "shard-1")),
        ("attribute:r", "r2", (os, "replace", SHARDS_NAME)),
    ], ids=["hash-mid-shard", "attribute-before-manifest"])
    def test_cut_short_publish_serves_previous_date(
        self, tmp_path, monkeypatch, by, hidden, crash
    ):
        cubes = _dated_cubes(hidden)
        root = _publish(tmp_path / "sharded", 0, cubes[0], by)
        with monkeypatch.context() as patch:
            _crash_on(patch, *crash)
            with pytest.raises(OSError, match="injected"):
                _publish(root, 1, cubes[1], by)
        router = ShardedCubeService(root)
        assert router.date == 0 and router.dates() == [0]
        assert set(_served_dates(router).values()) == {0}
        assert _cells(router) == _cells(cubes[0])
        assert [d for d, _ in router.trend("D")] == [0]
        with pytest.raises(SnapshotError, match="not published"):
            ShardedCubeService(root, date=1)

        _publish(root, 1, cubes[1], by)
        fresh = router.refreshed()
        assert fresh is not None and fresh.date == 1
        assert set(_served_dates(fresh).values()) == {1}
        assert _cells(fresh) == _cells(cubes[1])
        assert router.date == 0

    def test_backfill_keeps_the_newest_published_date(
        self, dated, tmp_path
    ):
        root = tmp_path / "sharded"
        for date, parent in ((0, None), (2, 0), (1, 0)):
            dump_sharded_into_timeline(
                root, date, dated[date], by="hash", n_shards=2,
                parent_date=parent,
            )
        router = ShardedCubeService(root)
        assert router.date == 2 and router.dates() == [0, 1, 2]
        assert _cells(router) == _cells(dated[2])

    def test_every_crash_point_serves_one_date(
        self, dated, tmp_path, crash_at
    ):
        base = tmp_path / "base"
        for date in (0, 1):
            _publish(base, date, dated[date], "hash", n_shards=2)
        whole = shutil.copytree(base, tmp_path / "whole")
        calls = crash_at(lambda: _publish(whole, 2, dated[2], "hash", 2))
        served = set()
        for crash in range(len(calls)):
            root = shutil.copytree(base, tmp_path / f"crash-{crash}")
            crash_at(lambda: _publish(root, 2, dated[2], "hash", 2),
                     fail=crash)
            router = ShardedCubeService(root)
            assert set(_served_dates(router).values()) == {router.date}
            assert _cells(router) == _cells(dated[router.date]), crash
            served.add(router.date)
            shutil.rmtree(root)
        # Crashes before shards.json is replaced serve the old date, the
        # directory fsync after it the new one.
        assert served == {1, 2}
