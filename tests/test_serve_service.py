"""Tests of the serving layer: CubeService and the ``repro.serve`` CLI.

The serving contract: an opened snapshot answers every exploration
query identically to the live cube it was dumped from, writes nothing
after open but per-row slots that each hold their row's one value (a
decoded key, a rendered cell), and is therefore safe for concurrent
reader threads — the thread-pool test hammers a fresh (cold,
lazy-state-unbuilt) service from many threads and checks every answer
against the single-threaded reference.  That each row's cell JSON is
rendered once per opened service is checked in ``test_serve_http.py``.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.errors import SnapshotError
from repro.serve.__main__ import main as serve_main
from repro.serve.http import make_app
from repro.serve.router import open_service
from repro.serve.service import CubeService
from repro.store import dump_into_timeline, dump_snapshot, open_snapshot


@pytest.fixture(scope="module")
def built(schools):
    table, schema = schools
    return SegregationDataCubeBuilder(min_population=10, min_minority=3).build(table, schema)


@pytest.fixture(scope="module")
def snapshot_dir(built, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "snap"
    dump_snapshot(built, path)
    return path


class TestCubeService:
    def test_opens_snapshot_path(self, built, snapshot_dir):
        service = CubeService(snapshot_dir)
        assert len(service.cube) == len(built)
        assert service.cube.metadata.extra["snapshot"]["mmap"] is True

    def test_wraps_live_cube(self, built):
        service = CubeService(built)
        assert service.cube is built

    def test_top_matches_live(self, built, snapshot_dir):
        service = CubeService(snapshot_dir)
        live = CubeService(built)
        assert (
            service.top("D", k=5, min_minority=5)
            == live.top("D", k=5, min_minority=5)
        )

    def test_point_and_navigation_queries(self, built, snapshot_dir):
        service = CubeService(snapshot_dir)
        sa = {"ethnicity": "minority"}
        assert service.value("D", sa=sa) == built.value("D", sa=sa)
        assert service.cell(sa=sa) == built.cell(sa=sa)
        got = {s.key for s in service.children()}
        want = {
            key for key in built.keys() if len(key[0]) + len(key[1]) == 1
        }
        assert got == want
        child = service.cell(sa=sa, ca={"city": "Rivertown"})
        parents = service.parents(sa=sa, ca={"city": "Rivertown"})
        assert child is not None and len(parents) == 2
        assert (
            [s.key for s in service.slice(ca={"city": "Rivertown"})]
            == [s.key for s in built.slice(ca={"city": "Rivertown"})]
        )

    def test_pivot_matches_live(self, built, snapshot_dir):
        from repro.report.pivot import pivot

        service = CubeService(snapshot_dir)
        assert (
            service.pivot("D", "ethnicity", "city")
            == pivot(built, "D", "ethnicity", "city")
        )

    def test_info_carries_provenance(self, snapshot_dir):
        info = CubeService(snapshot_dir).info()
        assert info["cells"] > 0
        assert info["snapshot"]["path"] == str(snapshot_dir)
        assert "D" in info["index_names"]

    def test_concurrent_readers_agree_with_reference(self, snapshot_dir):
        """Many threads over one cold service: every answer identical."""
        reference_cube = open_snapshot(snapshot_dir)
        reference = CubeService(reference_cube)
        expected = {
            "top": reference.top("D", k=5, min_minority=5),
            "slice": [
                s.key for s in reference.slice(ca={"city": "Rivertown"})
            ],
            "value": reference.value("D", sa={"ethnicity": "minority"}),
            "pivot": reference.pivot("D", "ethnicity", "city"),
            "children": {s.key for s in reference.children()},
            "keys": list(reference_cube.keys()),
        }

        # Each round opens afresh: no key is decoded yet, so the first
        # queries race to fill the per-row key slots while "keys" workers
        # decode the whole table — warm() plus read-only arrays must make
        # that safe.  A tiny switch interval makes threads swap mid-decode.
        kinds = ("keys", "top", "slice", "value", "pivot", "children")

        def worker(service, i: int):
            kind = kinds[i % len(kinds)]
            if kind == "keys":
                return kind, list(service.cube.keys())
            if kind == "top":
                return kind, service.top("D", k=5, min_minority=5)
            if kind == "slice":
                return kind, [
                    s.key for s in service.slice(ca={"city": "Rivertown"})
                ]
            if kind == "value":
                return kind, service.value("D", sa={"ethnicity": "minority"})
            if kind == "pivot":
                return kind, service.pivot("D", "ethnicity", "city")
            return kind, {s.key for s in service.children()}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        results = []
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(25):
                    service = CubeService(open_snapshot(snapshot_dir))
                    results += pool.map(partial(worker, service), range(24))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 600
        for kind, got in results:
            assert got == expected[kind], f"{kind} diverged under threads"


    def test_concurrent_point_queries_on_live_closed_cube(
        self, schools_with_tracking
    ):
        """Live closed-mode cubes resolve misses through the lazy
        resolver; warm() must cover its transaction-database caches so
        threads never race the unsynchronized lazy builds.

        The queries are every key of the all-mode twin, some of which
        only the resolver answers.  The expected values are the twin's
        (the resolver is exact), so nothing of the served cube is built
        before the threads start."""
        table, schema = schools_with_tracking
        limits = {"min_population": 10, "min_minority": 3}
        full = SegregationDataCubeBuilder(**limits).build(table, schema)
        queries = list(full.keys())
        expected = {key: full.value_by_key("D", key) for key in queries}
        materialised = set(SegregationDataCubeBuilder(mode="closed", **limits).build(table, schema).keys())
        assert set(queries) - materialised, "no key reaches the resolver"
        service = CubeService(SegregationDataCubeBuilder(mode="closed", **limits).build(table, schema))
        n_threads = 4 * (os.cpu_count() or 1)

        def worker(offset: int):
            rotated = queries[offset:] + queries[:offset]
            return [(key, service.value_by_key("D", key)) for key in rotated]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                results = list(pool.map(worker, range(n_threads),
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == n_threads
        for answers in results:
            assert len(answers) == len(queries)
            for key, got in answers:
                want = expected[key]
                assert got == want or (math.isnan(got) and math.isnan(want))


class TestOpenService:
    """The one opener the CLI and ``make_app`` share."""

    @pytest.fixture()
    def old_sharded_dir(self, built, tmp_path):
        """A directory laid out as the removed sharded writer left it:
        one snapshot under ``shard-0/`` behind a ``shards.json``."""
        root = tmp_path / "sharded"
        dump_snapshot(built, root / "shard-0")
        (root / "shards.json").write_text(json.dumps({
            "entries": [{"key": "0", "path": "shard-0"}],
            "format_version": 1,
            "n_words": int(built.table.sa_masks.shape[1]),
            "published_date": None,
            "sharded_by": "hash",
        }))
        return root

    def test_opens_each_source_and_rejects_a_sharded_layout(
        self, built, snapshot_dir, old_sharded_dir, tmp_path
    ):
        dump_into_timeline(tmp_path / "tl", 0, built)
        dump_into_timeline(tmp_path / "tl", 1, built, parent_date=0,
                           parent=built)
        for source in (built, snapshot_dir, tmp_path / "tl"):
            assert type(open_service(source)) is CubeService
        assert open_service(tmp_path / "tl").date == 1
        # A directory of the removed sharded layout is neither a
        # snapshot nor a timeline.
        match = re.escape(
            f"no dated snapshots under timeline directory {old_sharded_dir}"
        )
        with pytest.raises(SnapshotError, match=match):
            open_service(old_sharded_dir)
        with pytest.raises(SnapshotError, match=match):
            make_app(old_sharded_dir)

    def test_cli_rejects_old_sharded_directory(self, old_sharded_dir,
                                               capsys):
        assert serve_main([str(old_sharded_dir), "top"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: no dated snapshots under timeline directory "
            f"{old_sharded_dir}"
        ]


class TestServeCli:
    def test_typed_vocabulary_coordinates_addressable(
        self, tmp_path, capsys
    ):
        """int/bool-valued items are reachable from string CLI args."""
        from repro.cube.cell import CellStats
        from repro.cube.coordinates import make_key
        from repro.cube.cube import CubeMetadata, SegregationCube
        from repro.itemsets.items import Item, ItemDictionary, ItemKind

        dictionary = ItemDictionary()
        dictionary.add(Item("g", "F"), ItemKind.SA)
        dictionary.add(Item("n_boards", 2), ItemKind.CA)
        key = make_key([0], [1])
        cube = SegregationCube(
            {key: CellStats(key, 8, 3, 2, {"D": 0.25})},
            dictionary,
            CubeMetadata(
                index_names=["D"], min_population=1, min_minority=1,
                n_rows=8, n_units=2, mode="all", backend="test",
            ),
        )
        dump_snapshot(cube, tmp_path / "typed")
        code = serve_main(
            [str(tmp_path / "typed"), "cell",
             "--sa", "g=F", "--ca", "n_boards=2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n_boards=2" in out
    def test_info(self, snapshot_dir, capsys):
        assert serve_main([str(snapshot_dir), "info"]) == 0
        out = capsys.readouterr().out
        assert "cells" in out

    def test_top_text_and_json(self, built, snapshot_dir, capsys):
        assert serve_main(
            [str(snapshot_dir), "top", "--index", "D", "-k", "3",
             "--min-minority", "5"]
        ) == 0
        text = capsys.readouterr().out
        assert "rank" in text
        assert serve_main(
            [str(snapshot_dir), "top", "--index", "D", "-k", "3",
             "--min-minority", "5", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        live = built.top("D", k=3, min_minority=5)
        assert [f["cell"] for f in payload] == [
            built.describe(s.key) for s in live
        ]

    def test_cell_found_and_missing(self, snapshot_dir, capsys):
        assert serve_main(
            [str(snapshot_dir), "cell", "--sa", "ethnicity=minority"]
        ) == 0
        assert "ethnicity=minority" in capsys.readouterr().out
        code = serve_main(
            [str(snapshot_dir), "cell", "--sa", "ethnicity=minority",
             "--ca", "city=Lakeside", "--sa", "sex=F"]
        )
        capsys.readouterr()
        assert code in (0, 1)  # cell may or may not be materialised

    def test_rows_text_and_json(self, built, snapshot_dir, capsys):
        assert serve_main([str(snapshot_dir), "rows"]) == 0
        text = capsys.readouterr().out
        assert "ethnicity" in text and "units" in text
        assert serve_main([str(snapshot_dir), "rows", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == built.to_rows()

    def test_pivot_json(self, snapshot_dir, capsys):
        assert serve_main(
            [str(snapshot_dir), "pivot", "--index", "D",
             "--rows", "ethnicity", "--cols", "city", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][-1] == "*"
        assert len(payload["values"]) == len(payload["rows"])

    def test_no_mmap_flag(self, snapshot_dir, capsys):
        # The documented form: flag after the subcommand.
        assert serve_main([str(snapshot_dir), "info", "--no-mmap"]) == 0
        out = capsys.readouterr().out
        assert "'mmap': False" in out

    def test_unknown_coordinate_is_clean_error(self, snapshot_dir, capsys):
        code = serve_main(
            [str(snapshot_dir), "slice", "--sa", "ethnicity=bogus"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_missing_snapshot_is_clean_error(self, built, tmp_path, capsys,
                                             resave_listed):
        """A missing or malformed snapshot: exit 2, one ``error:`` line."""
        flat = dump_snapshot(built, tmp_path / "flat")
        resave_listed(flat, "ca_masks", lambda a: a[:, 0])
        for source, command in ((tmp_path / "nope", "info"), (flat, "top")):
            code = serve_main([str(source), command])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error:")

    def test_bad_coordinate_syntax_exits(self, snapshot_dir):
        with pytest.raises(SystemExit):
            serve_main([str(snapshot_dir), "slice", "--sa", "noequals"])

    @pytest.mark.parametrize("flag, value", [
        ("--cache-size", "-1"),
        ("--port", "70000"),
        ("-k", "-1"),
    ])
    def test_bad_serve_numbers_fail_at_parse_time(
        self, snapshot_dir, capsys, flag, value
    ):
        command = "top" if flag == "-k" else "serve"
        with pytest.raises(SystemExit) as exit_info:
            serve_main([str(snapshot_dir), command, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert flag in errors[0] and value in errors[0]
