"""HTTP serving self-check: endpoint parity smoke, CI-runnable.

Run anywhere::

    python -m repro.serve.selfcheck artifacts/serve_smoke

Builds a small cube from the bundled schools dataset, dumps it both as
a single snapshot and as a hash-sharded directory, stands up the WSGI
app over each (in-process — no socket), and fails loudly (exit 1)
unless:

* every endpoint answers 200 with a JSON body **byte-identical** to
  the corresponding in-process payload function over a plain
  :class:`~repro.serve.service.CubeService` — the HTTP tier's core
  contract;
* the sharded app's ``/top``, ``/slice``, ``/pivot``, ``/cell``,
  ``/children`` and ``/parents`` bodies equal the unsharded app's,
  byte for byte;
* the error surface holds: unknown endpoint → 404, malformed
  coordinate → 400, unknown index → 400, missing cell → 404, all with
  JSON bodies;
* a second pass over the same queries is answered by the hot-query
  cache (hit counter grows, bodies unchanged);
* a timeline refresh serves exactly what a fresh server would: date 0
  is published and served, then dates 1 and 2 are published as deltas,
  each followed by ``POST /refresh``.  After each refresh ``/dates``
  reports the new served date and every endpoint body equals that of a
  fresh :func:`~repro.serve.http.make_app` over the same timeline, byte
  for byte (``/info`` up to its cache counters and the clock-derived
  ``seconds_since_publish``).

The directory is left in place so the CI job can upload it as an
artifact.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from repro.cube.builder import SegregationDataCubeBuilder, build_cube
from repro.data.schools import generate_schools
from repro.data.synthetic import random_temporal_final_table
from repro.etl.diff import valid_at
from repro.itemsets.transactions import encode_table
from repro.serve import payloads
from repro.serve.http import make_app, wsgi_get
from repro.serve.service import CubeService
from repro.store.shards import dump_sharded_snapshot
from repro.store.snapshot import delta_chain_length, dump_snapshot
from repro.store.timeline import dump_into_timeline

QUERIES = (
    "/info",
    "/dates",
    "/top?index=D&k=10&min_minority=5",
    "/slice?ca=city%3DRivertown",
    "/cell?sa=ethnicity%3Dminority",
    "/children?sa=ethnicity%3Dminority",
    "/parents?sa=ethnicity%3Dminority&ca=city%3DRivertown",
    "/pivot?index=D&rows=ethnicity&cols=city",
)

#: The timeline pass's queries, over its synthetic world's attributes.
TIMELINE_QUERIES = (
    "/info",
    "/dates",
    "/top?index=D&k=10",
    "/slice?ca=r%3Dr0",
    "/cell?sa=g%3Dg0",
    "/children?sa=g%3Dg0",
    "/parents?sa=g%3Dg0&ca=r%3Dr0",
    "/pivot?index=D&rows=g&cols=r",
    "/trend?index=D&sa=g%3Dg0&ca=r%3Dr0",
)


def _expected_bodies(service: CubeService) -> "dict[str, bytes]":
    """The in-process answer to every smoke query, via the payload fns."""
    sa = {"ethnicity": "minority"}
    ca = {"city": "Rivertown"}
    return {
        "/info": payloads.dumps(payloads.info_payload(service)),
        "/dates": payloads.dumps(payloads.dates_payload(service)),
        "/top?index=D&k=10&min_minority=5": payloads.dumps(
            payloads.top_payload(service, index_name="D", k=10,
                                 min_minority=5)
        ),
        "/slice?ca=city%3DRivertown": payloads.dumps(
            payloads.cells_payload(service, service.slice(ca=ca))
        ),
        "/cell?sa=ethnicity%3Dminority": payloads.dumps(
            payloads.cell_payload(service, service.cell(sa=sa))
        ),
        "/children?sa=ethnicity%3Dminority": payloads.dumps(
            payloads.cells_payload(service, service.children(sa=sa))
        ),
        "/parents?sa=ethnicity%3Dminority&ca=city%3DRivertown":
            payloads.dumps(
                payloads.cells_payload(service, service.parents(sa=sa,
                                                                ca=ca))
            ),
        "/pivot?index=D&rows=ethnicity&cols=city": payloads.dumps(
            payloads.pivot_payload(service, "D", "ethnicity", "city")
        ),
    }


def run(path: str) -> int:
    root = Path(path)
    table, schema = generate_schools()
    cube = build_cube(table, schema, min_population=10, min_minority=3)
    dump_snapshot(cube, root / "snapshot")
    dump_sharded_snapshot(cube, root / "sharded", by="hash", n_shards=4)

    reference = CubeService(root / "snapshot")
    expected = _expected_bodies(reference)
    single = make_app(root / "snapshot")
    sharded = make_app(root / "sharded")

    failures = 0

    def check(label: str, condition: bool, detail: str = "") -> None:
        nonlocal failures
        if not condition:
            failures += 1
            print(f"SMOKE FAILURE: {label} {detail}".rstrip(),
                  file=sys.stderr)

    for query in QUERIES:
        status, headers, body = wsgi_get(single, query)
        check(f"{query} status", status == 200, f"(got {status})")
        check(f"{query} content-type",
              headers.get("Content-Type") == "application/json")
        want = expected[query]
        # /info differs structurally (cache counters; shard breakdown on
        # the sharded app), so it is checked for parity of the shared
        # headline fields instead of byte identity.
        if query == "/info":
            got = json.loads(body)
            ref = json.loads(want)
            for field in ("cells", "context_only_cells", "index_names",
                          "mode", "defined_cells_per_index"):
                check(f"/info field {field}", got.get(field) == ref[field],
                      f"(got {got.get(field)!r}, want {ref[field]!r})")
            check("/info cache counters", "cache" in got)
        else:
            check(f"{query} byte parity", body == want,
                  f"({len(body)} vs {len(want)} bytes)")

        sh_status, _, sh_body = wsgi_get(sharded, query)
        check(f"sharded {query} status", sh_status == 200,
              f"(got {sh_status})")
        if query == "/info":
            got = json.loads(sh_body)
            ref = json.loads(want)
            for field in ("cells", "context_only_cells", "index_names"):
                check(f"sharded /info field {field}",
                      got.get(field) == ref[field])
        elif query == "/dates":
            pass   # a non-timeline sharded dir has no dates either way
        else:
            check(f"sharded {query} byte parity", sh_body == want,
                  f"({len(sh_body)} vs {len(want)} bytes)")

    # Error surface.
    status, _, body = wsgi_get(single, "/nope")
    check("/nope -> 404", status == 404 and b"error" in body)
    status, _, body = wsgi_get(single, "/slice?sa=noequals")
    check("bad coordinate -> 400", status == 400 and b"error" in body)
    status, _, body = wsgi_get(single, "/top?index=NOPE")
    check("unknown index -> 400", status == 400 and b"error" in body)
    status, _, body = wsgi_get(single, "/top?k=abc")
    check("non-integer k -> 400", status == 400 and b"error" in body)
    # No school sits in two cities, so this cell can never materialise
    # (but both values are in the vocabulary: a true missing-cell 404,
    # not a bad request).
    status, _, body = wsgi_get(
        single, "/cell?ca=city%3DRivertown&ca=city%3DLakeside"
    )
    check("missing cell -> 404 null",
          (status, body) == (404, b"null"), f"(got {status}, {body[:40]!r})")
    status, _, body = wsgi_get(single, "/slice?ca=city%3DNowhere")
    check("unknown coordinate value -> 400",
          status == 400 and b"error" in body, f"(got {status})")

    # Hot-query cache: re-ask everything, hits must grow, bodies hold.
    before = single.service.cache.stats()["hits"]
    for query in QUERIES:
        status, _, body = wsgi_get(single, query)
        check(f"warm {query} status", status == 200)
        if query != "/info":
            check(f"warm {query} byte parity", body == expected[query])
    after = single.service.cache.stats()["hits"]
    check("cache hits grew", after > before, f"({before} -> {after})")

    run_timeline(root / "timeline", check)
    if failures:
        return 1
    print(
        f"serve selfcheck OK: {len(QUERIES)} endpoints byte-identical to "
        f"in-process payloads over {len(reference.cube)} cells, sharded "
        f"(4 hash shards) == unsharded, errors map to 400/404, "
        f"{after - before} warm-pass cache hits; 2 timeline refreshes "
        f"serve {len(TIMELINE_QUERIES)} endpoints byte-identical to a "
        "fresh server"
    )
    return 0


def _comparable(query: str, body: bytes) -> bytes:
    """``body`` without what legitimately differs between two servers.

    Only ``/info`` has such parts: the cache counters, and the seconds
    since the last publish, which the clock moves between the calls.
    """
    if query != "/info":
        return body
    info = json.loads(body)
    info.pop("cache", None)
    info.get("staleness", {}).pop("seconds_since_publish", None)
    return json.dumps(info, sort_keys=True).encode()


def run_timeline(root: Path, check) -> None:
    """Refresh parity, reported through ``check(label, condition)``."""
    # A rerun starts over: dates left by an earlier run would already be
    # served, and nothing would be left to refresh onto.
    shutil.rmtree(root, ignore_errors=True)
    dates = (0, 1, 2)
    table, schema, starts, ends = random_temporal_final_table(
        n_rows=4000, n_units=12, dates=dates,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 4, "s": 3},
        multi_valued_ca={"mv": 3},
        seed=5, skew=0.5,
    )
    db = encode_table(table, schema)
    builder = SegregationDataCubeBuilder(
        min_population=10, min_minority=3, max_sa_items=2, max_ca_items=2
    )
    cubes = [
        builder.build_from_transactions(
            db.restrict(valid_at(starts, ends, date))
        )
        for date in dates
    ]
    dump_into_timeline(root, dates[0], cubes[0])
    served = make_app(root)
    for date in dates[1:]:
        dump_into_timeline(
            root, date, cubes[date], parent_date=date - 1,
            parent=cubes[date - 1],
        )
        # The refresh below is only a delta hop while the publish rule
        # keeps dates 1 and 2 as deltas.
        check(f"timeline date {date} is a delta",
              delta_chain_length(root / str(date)) == date)
        status, _, body = wsgi_get(served, "/refresh", method="POST")
        check(f"timeline refresh to date {date}",
              (status, body) == (200, b'{"refreshed":true}'),
              f"(got {status}, {body[:80]!r})")
        status, _, body = wsgi_get(served, "/dates")
        check(f"timeline /dates after refresh to {date}",
              json.loads(body)["served_date"] == date,
              f"(got {body!r})")
        fresh = make_app(root)
        for query in TIMELINE_QUERIES:
            status, _, body = wsgi_get(served, query)
            want_status, _, want = wsgi_get(fresh, query)
            check(f"timeline date {date} {query} status",
                  status == want_status == 200,
                  f"(got {status}, fresh {want_status})")
            check(f"timeline date {date} {query} byte parity",
                  _comparable(query, body) == _comparable(query, want),
                  f"({len(body)} vs {len(want)} bytes)")


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(
            "usage: python -m repro.serve.selfcheck <artifact-dir>",
            file=sys.stderr,
        )
        return 2
    return run(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
