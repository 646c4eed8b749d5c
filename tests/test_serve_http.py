"""Tests of the WSGI serving tier: byte parity and the error surface.

The acceptance contract: every endpoint's body is **byte-identical** to
the JSON the in-process payload builders produce for the equivalent
CubeService call — for the single snapshot and for timelines — and
errors map to 400 (malformed/unknown parameters), 404 (unknown
endpoint, missing cell), 405 (wrong method) and 500, all with JSON
bodies.  The cell endpoints join per-row fragments that the service
renders once per opened cube: every cell query is compared on three
kinds of source, under racing threads, and the renders are counted.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from urllib.parse import quote

import pytest

from repro.cube.builder import build_cube
from repro.cube.cube import SegregationCube
from repro.itemsets.items import ItemKind
from repro.serve import payloads
from repro.serve.http import make_app, serve, wsgi_get
from repro.serve.service import CubeService
from repro.store import (
    delta_chain_length,
    dump_delta_snapshot,
    dump_into_timeline,
    dump_snapshot,
)


@pytest.fixture(scope="module")
def built(schools):
    table, schema = schools
    return build_cube(table, schema, min_population=10, min_minority=3)


@pytest.fixture(scope="module")
def snapshot_dir(built, tmp_path_factory):
    path = tmp_path_factory.mktemp("http") / "snap"
    dump_snapshot(built, path)
    return path


@pytest.fixture(scope="module")
def app(snapshot_dir):
    return make_app(snapshot_dir)


@pytest.fixture(scope="module")
def reference(snapshot_dir):
    return CubeService(snapshot_dir)


SA = "sa=ethnicity%3Dminority"
CA = "ca=city%3DRivertown"


class TestByteParity:
    def expected(self, reference, query):
        sa = {"ethnicity": "minority"}
        ca = {"city": "Rivertown"}
        build = {
            f"/top?index=D&k=5&min_minority=5": lambda: payloads.top_payload(
                reference, index_name="D", k=5, min_minority=5
            ),
            f"/slice?{CA}": lambda: payloads.cells_payload(
                reference, reference.slice(ca=ca)
            ),
            f"/cell?{SA}": lambda: payloads.cell_payload(
                reference, reference.cell(sa=sa)
            ),
            f"/children?{SA}": lambda: payloads.cells_payload(
                reference, reference.children(sa=sa)
            ),
            f"/parents?{SA}&{CA}": lambda: payloads.cells_payload(
                reference, reference.parents(sa=sa, ca=ca)
            ),
            "/pivot?index=D&rows=ethnicity&cols=city": lambda:
                payloads.pivot_payload(reference, "D", "ethnicity", "city"),
            "/dates": lambda: payloads.dates_payload(reference),
        }
        return payloads.dumps(build[query]())

    @pytest.mark.parametrize("query", [
        "/top?index=D&k=5&min_minority=5",
        f"/slice?{CA}",
        f"/cell?{SA}",
        f"/children?{SA}",
        f"/parents?{SA}&{CA}",
        "/pivot?index=D&rows=ethnicity&cols=city",
        "/dates",
    ])
    def test_endpoint_bytes_equal_in_process_payload(
        self, app, reference, query
    ):
        status, headers, body = wsgi_get(app, query)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) == len(body)
        assert body == self.expected(reference, query)
        # Asked again, the query may be answered from the hot-query
        # cache: the bytes must not change.
        status, _, again = wsgi_get(app, query)
        assert (status, again) == (200, body)

    def test_info_reports_counters_disk_and_summary(self, app, reference):
        status, _, body = wsgi_get(app, "/info")
        assert status == 200
        info = json.loads(body)
        ref = json.loads(payloads.dumps(payloads.info_payload(reference)))
        for field in ("cells", "index_names", "mode", "backend",
                      "defined_cells_per_index", "disk"):
            assert info[field] == ref[field]
        assert info["disk"]["snapshot_bytes"] > 0
        assert info["disk"]["delta_chain_length"] == 0
        assert {"hits", "misses", "size"} <= set(info["cache"])

    def test_typed_query_coercion(self, tmp_path):
        """int-valued vocabulary items are reachable from the wire."""
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
        typed_app = make_app(tmp_path / "typed")
        status, _, body = wsgi_get(
            typed_app, "/cell?sa=g%3DF&ca=n_boards%3D2"
        )
        assert status == 200
        assert json.loads(body)["population"] == 8


def _address(dictionary, key) -> "tuple[str, dict[str, object]]":
    """A cell key as a query string and as in-process coordinates."""
    params: "list[str]" = []
    coords: "dict[str, dict[str, list[object]]]" = {"sa": {}, "ca": {}}
    for name, part in zip(("sa", "ca"), key):
        for item_id in sorted(part):
            item = dictionary.item(item_id)
            params.append(f"{name}={quote(f'{item.attribute}={item.value}')}")
            coords[name].setdefault(item.attribute, []).append(item.value)
    return "&".join(params), {
        name: values or None for name, values in coords.items()
    }


def _absent_keys(dictionary) -> "list[tuple[frozenset, frozenset]]":
    """Keys no cell can have: two values of one single-valued
    attribute (the schools attributes all are)."""
    by_attribute: "dict[str, list[int]]" = {}
    for item_id in range(len(dictionary)):
        by_attribute.setdefault(
            dictionary.item(item_id).attribute, []
        ).append(item_id)
    keys = []
    for ids in by_attribute.values():
        if len(ids) > 1:
            pair = frozenset(ids[:2])
            sa = dictionary.kind(ids[0]) is ItemKind.SA
            keys.append((pair, frozenset()) if sa else (frozenset(), pair))
    return keys


def _cell_queries(dictionary, keys
                  ) -> "list[tuple[str, dict[str, object]]]":
    """``(query, coordinates)`` of ``/cell``, ``/children`` and
    ``/parents`` for every key in ``keys``, then of ``/slice`` for every
    single item."""
    queries = []
    for key in keys:
        qs, coords = _address(dictionary, key)
        for path in ("/cell", "/children", "/parents"):
            queries.append((f"{path}?{qs}", coords))
    for item_id in range(len(dictionary)):
        item = frozenset([item_id])
        sa = dictionary.kind(item_id) is ItemKind.SA
        qs, coords = _address(
            dictionary, (item, frozenset()) if sa else (frozenset(), item)
        )
        queries.append((f"/slice?{qs}", coords))
    return queries


def _expected(reference, query: str, coords: "dict[str, object]"
              ) -> "tuple[int, bytes]":
    """``(status, dumps(<payload fn>(reference, ...)))`` of one cell
    endpoint query."""
    path = query.partition("?")[0]
    if path == "/cell":
        payload = payloads.cell_payload(reference, reference.cell(**coords))
        return (200 if payload is not None else 404), payloads.dumps(payload)
    cells = getattr(reference, path[1:])(**coords)
    return 200, payloads.dumps(payloads.cells_payload(reference, cells))


class TestExhaustiveParity:
    """Every cell endpoint, for every cell key and every single item,
    from three kinds of source: each body equals ``dumps`` of the
    in-process payload, and an absent key's ``/cell`` is 404 ``null``."""

    @pytest.fixture(scope="class")
    def delta_root(self, built, tmp_path_factory):
        """A timeline whose served date is a delta: date 0 lacks one of
        ``built``'s cells and has another with other counts."""
        keys = sorted(built.keys(), key=built.describe)
        cells = {key: built.cell_by_key(key) for key in keys[1:]}
        changed = keys[1]
        cells[changed] = replace(
            cells[changed], population=cells[changed].population + 1
        )
        older = SegregationCube(cells, built.dictionary, built.metadata)
        root = tmp_path_factory.mktemp("parity") / "tl"
        dump_snapshot(older, root / "0")
        dump_delta_snapshot(built, root / "1", root / "0", parent=older)
        assert delta_chain_length(root / "1") == 1
        return root

    @pytest.fixture(scope="class")
    def closed(self, schools_with_tracking):
        """A live closed-mode cube with resolver-only keys, and the keys
        of its all-mode twin."""
        table, schema = schools_with_tracking
        full = build_cube(table, schema, min_population=10, min_minority=3)
        cube = build_cube(table, schema, min_population=10, min_minority=3,
                          mode="closed")
        assert len(cube) < len(full)
        return cube, list(full.keys())

    def check(self, app, reference, keys) -> "dict[str, int]":
        """Compare every query; return each query's status."""
        dictionary = reference.dictionary
        absent = _absent_keys(dictionary)
        statuses: "dict[str, int]" = {}
        for query, coords in _cell_queries(dictionary, [*keys, *absent]):
            status, _, body = wsgi_get(app, query)
            assert (status, body) == _expected(reference, query, coords), \
                query
            statuses[query] = status
        assert absent
        for key in absent:
            query = f"/cell?{_address(dictionary, key)[0]}"
            assert statuses[query] == 404, query
        return statuses

    def test_snapshot(self, built, snapshot_dir):
        app = make_app(snapshot_dir)
        self.check(app, CubeService(snapshot_dir), built.keys())

    def test_delta_timeline_date(self, built, delta_root):
        app = make_app(delta_root)
        reference = CubeService(delta_root)
        assert reference.date == 1
        self.check(app, reference, built.keys())

    def test_live_closed_mode_cube(self, closed):
        cube, keys = closed
        statuses = self.check(make_app(cube), CubeService(cube), keys)
        # Every all-mode key is a cell: the closed cube's rows answer
        # some, its resolver the rest (rendered, never kept).
        dictionary = cube.dictionary
        resolved = [key for key in keys if key not in cube]
        assert resolved
        for key in resolved:
            assert statuses[f"/cell?{_address(dictionary, key)[0]}"] == 200


class TestConcurrentRendering:
    def test_threads_racing_on_fresh_slots_render_reference_bytes(
        self, built, snapshot_dir
    ):
        """Eight threads on a fresh cache-off app race to fill the same
        rows' slots; every body equals the in-process reference."""
        reference = CubeService(snapshot_dir)
        queries = [
            (query, coords)
            for query, coords in _cell_queries(reference.dictionary,
                                               built.keys())
            if query.startswith(("/children", "/parents"))
        ]
        expected = {
            query: _expected(reference, query, coords)
            for query, coords in queries
        }
        app = make_app(snapshot_dir, cache_size=0)

        def one(query: str) -> "tuple[str, tuple[int, bytes]]":
            status, _, body = wsgi_get(app, query)
            return query, (status, body)

        work = [query for query, _ in queries] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(one, work, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(work)
        for query, got in results:
            assert got == expected[query], f"{query} diverged under threads"
        # Every row is some key's child or parent.
        assert app.service.info()["rendered_rows"] == len(built)


class TestRenderOnce:
    """An opened cube renders each row's cell JSON once, on first use."""

    @pytest.fixture()
    def root(self, built, tmp_path):
        root = tmp_path / "tl"
        dump_into_timeline(root, 0, built)
        return root

    @staticmethod
    def rendered_rows(app) -> int:
        return json.loads(wsgi_get(app, "/info")[2])["rendered_rows"]

    def test_each_row_renders_once_per_opened_cube(self, built, root,
                                                   monkeypatch):
        renders: "Counter[tuple[int, object]]" = Counter()
        render = CubeService._render

        def counting(self, stats):
            renders[id(self), stats.key] += 1
            return render(self, stats)

        monkeypatch.setattr(CubeService, "_render", counting)
        # Cache off: every request renders its body.  Each /slice lists
        # every row, and each row is a child or parent of another.
        app = make_app(root, cache_size=0)
        mix = ["/slice", "/slice"]
        for key in built.keys():
            qs = _address(built.dictionary, key)[0]
            mix += [f"/cell?{qs}", f"/children?{qs}", f"/parents?{qs}"]

        def run_mix() -> int:
            for query in mix:
                assert wsgi_get(app, query)[0] == 200, query
            return id(app.service.service)

        first = run_mix()
        run_mix()
        assert renders == Counter({(first, key): 1 for key in built.keys()})

        # A refreshed service renders its rows afresh, once each.
        dump_into_timeline(root, 1, built, parent_date=0, parent=built)
        assert wsgi_get(app, "/refresh", method="POST")[2] == \
            b'{"refreshed":true}'
        second = run_mix()
        run_mix()
        assert second != first
        assert renders == Counter({
            (service, key): 1
            for service in (first, second) for key in built.keys()
        })

    def test_info_reports_rendered_rows(self, built, root):
        app = make_app(root, cache_size=0)
        assert self.rendered_rows(app) == 0   # an open renders nothing
        listed = len(json.loads(wsgi_get(app, "/children")[2]))
        assert 0 < listed < len(built)
        assert self.rendered_rows(app) == listed
        wsgi_get(app, "/children")
        assert self.rendered_rows(app) == listed
        dump_into_timeline(root, 1, built, parent_date=0, parent=built)
        wsgi_get(app, "/refresh", method="POST")
        assert app.service.date == 1
        assert self.rendered_rows(app) == 0


class TestErrorSurface:
    def test_unknown_endpoint_404(self, app):
        status, _, body = wsgi_get(app, "/nope")
        assert status == 404
        assert json.loads(body)["status"] == 404

    def test_missing_cell_404_null(self, app):
        # Two cities in one cell: valid vocabulary, impossible cell.
        status, _, body = wsgi_get(
            app, "/cell?ca=city%3DRivertown&ca=city%3DLakeside"
        )
        assert (status, body) == (404, b"null")

    def test_malformed_coordinate_400(self, app):
        status, _, body = wsgi_get(app, "/slice?sa=noequals")
        assert status == 400
        assert "attribute=value" in json.loads(body)["error"]

    def test_unknown_coordinate_value_400(self, app):
        status, _, body = wsgi_get(app, "/slice?ca=city%3DNowhere")
        assert status == 400
        assert "unknown coordinate" in json.loads(body)["error"]

    def test_non_integer_param_400(self, app):
        for query in ("/top?k=many", "/top?k=-1"):
            status, _, body = wsgi_get(app, query)
            assert status == 400, query
            assert "k" in json.loads(body)["error"]

    def test_unknown_index_400(self, app):
        for query in ("/top?index=NOPE", "/trend?index=NOPE",
                      "/pivot?index=NOPE&rows=ethnicity&cols=city"):
            status, _, body = wsgi_get(app, query)
            assert status == 400, query
            assert "unknown index" in json.loads(body)["error"]

    def test_missing_pivot_attrs_400(self, app):
        status, _, body = wsgi_get(app, "/pivot?index=D")
        assert status == 400
        assert "rows" in json.loads(body)["error"]

    def test_trend_without_timeline_400(self, app):
        status, _, body = wsgi_get(app, "/trend?index=D")
        assert status == 400
        assert "timeline" in json.loads(body)["error"]

    def test_wrong_method_405(self, app):
        status, headers, _ = wsgi_get(app, "/top", method="POST")
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"
        status, headers, _ = wsgi_get(app, "/refresh", method="GET")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_head_has_headers_but_no_body(self, app):
        get_status, get_headers, get_body = wsgi_get(app, "/info")
        status, headers, body = wsgi_get(app, "/info", method="HEAD")
        assert status == get_status == 200
        assert body == b""
        assert int(headers["Content-Length"]) > 0


class TestTimelineServing:
    @pytest.fixture()
    def timeline(self, built, schools, tmp_path):
        table, schema = schools
        root = tmp_path / "tl"
        dump_into_timeline(root, 0, built)
        dump_into_timeline(root, 1, built, parent_date=0, parent=built)
        one_city = table.filter(
            table.categorical("city").mask_eq("Rivertown")
        )
        next_cube = build_cube(
            one_city, schema, min_population=10, min_minority=3
        )
        return root, next_cube

    def test_dates_trend_and_refresh(self, built, timeline):
        root, next_cube = timeline
        timeline_app = make_app(root)

        status, _, body = wsgi_get(timeline_app, "/dates")
        assert status == 200
        assert json.loads(body) == {"dates": [0, 1], "served_date": 1}

        status, _, body = wsgi_get(timeline_app, f"/trend?index=D&{SA}")
        assert status == 200
        series = json.loads(body)
        assert [entry["date"] for entry in series] == [0, 1]

        # Nothing new: refresh is a no-op.
        status, _, body = wsgi_get(timeline_app, "/refresh", method="POST")
        assert (status, json.loads(body)) == (200, {"refreshed": False})

        # Publish date 2, refresh, and the served surface must move.
        dump_into_timeline(root, 2, next_cube, parent_date=1, parent=built)
        status, _, body = wsgi_get(timeline_app, "/refresh", method="POST")
        assert (status, json.loads(body)) == (200, {"refreshed": True})
        _, _, body = wsgi_get(timeline_app, "/dates")
        assert json.loads(body) == {"dates": [0, 1, 2], "served_date": 2}
        _, _, body = wsgi_get(timeline_app, f"/trend?index=D&{SA}")
        assert [entry["date"] for entry in json.loads(body)] == [0, 1, 2]
        info = json.loads(wsgi_get(timeline_app, "/info")[2])
        assert info["cache"]["generation"] == 1
        assert set(info["timeline"]["per_date"]) == {"0", "1", "2"}
        # The one-city cube shares little with date 1, so the publish
        # rule wrote date 2 as a full snapshot.
        per_date = info["timeline"]["per_date"]
        assert per_date["2"]["delta_chain_length"] == 0
        assert per_date["2"]["delta_chain_length"] == delta_chain_length(
            root / "2"
        )

    def test_explicit_date_app(self, timeline):
        root, _ = timeline
        app0 = make_app(root, date=0)
        _, _, body = wsgi_get(app0, "/dates")
        assert json.loads(body)["served_date"] == 0


class TestServerPlumbing:
    def test_make_app_accepts_service_instance(self, reference):
        app = make_app(reference)
        assert app.service is reference
        status, _, body = wsgi_get(app, "/top?k=3")
        assert status == 200
        assert body == payloads.dumps(payloads.top_payload(reference, k=3))

    def test_serve_binds_and_answers_over_a_socket(self, snapshot_dir):
        import threading
        import urllib.request

        server = serve(snapshot_dir, port=0, quiet=True)
        port = server.server_address[1]
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/top?k=3", timeout=10
            ) as response:
                assert response.status == 200
                payload = json.loads(response.read())
            assert [f["rank"] for f in payload] == [1, 2, 3]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_cli_serve_subcommand_wired(self):
        from repro.serve.__main__ import build_parser

        args = build_parser().parse_args(
            ["snap", "serve", "--port", "0", "--cache-size", "16"]
        )
        assert args.command == "serve"
        assert args.port == 0 and args.cache_size == 16
