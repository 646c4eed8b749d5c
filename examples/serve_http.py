"""Serve a cube over HTTP: one snapshot, many readers, no rebuild.

``persist_and_serve.py`` reopened a snapshot in-process; this example
puts the same snapshot behind the stdlib-only WSGI tier.  It builds the
schools cube once, dumps it as a snapshot, then stands up ``make_app``
over it and walks the whole endpoint surface with the in-process test
client (no socket, same app object a real server would mount).  Along
the way it shows the two guarantees the tier makes:

* every body is canonical JSON, byte-identical to the in-process
  payload builders over a ``CubeService`` of the same snapshot;
* the hot-query LRU answers repeats from memory — ``/info`` exposes the
  hit/miss counters.

To serve the same snapshot to real clients, run::

    python -m repro.serve schools_snapshot serve --port 8000
    curl 'http://127.0.0.1:8000/top?index=D&k=5'

Run with:  python examples/serve_http.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import (
    CubeService,
    SegregationDataCubeBuilder,
    dump_snapshot,
    generate_schools,
)
from repro.serve import payloads
from repro.serve.http import make_app, wsgi_get

TOP = "/top?index=D&k=3&min_minority=30"


def show(app, query: str) -> bytes:
    status, _, body = wsgi_get(app, query)
    text = body.decode()
    print(f"  GET {query:<48} -> {status}  "
          f"{text[:64]}{'...' if len(text) > 64 else ''}")
    return body


def main() -> None:
    table, schema = generate_schools()
    cube = SegregationDataCubeBuilder(
        min_population=10, min_minority=3).build(table, schema)

    snapshot = Path("schools_snapshot")
    dump_snapshot(cube, snapshot)
    print(f"built {len(cube)} cells; dumped them as one snapshot")

    app = make_app(snapshot)
    print("\nThe endpoint surface:")
    bodies = {
        query: show(app, query)
        for query in (
            "/info",
            "/dates",
            TOP,
            "/slice?ca=city%3DRivertown",
            "/cell?sa=ethnicity%3Dminority&ca=city%3DRivertown",
            "/children?sa=ethnicity%3Dminority",
            "/parents?sa=ethnicity%3Dminority&ca=city%3DRivertown",
            "/pivot?index=D&rows=ethnicity&cols=city",
        )
    }

    top = json.loads(bodies[TOP])
    print("\nmost segregated contexts, straight off the wire:")
    for found in top:
        print(f"  {found['rank']}. {found['cell']:<45} "
              f"D={found['value']:.3f}")

    in_process = payloads.dumps(payloads.top_payload(
        CubeService(snapshot), index_name="D", k=3, min_minority=30,
    ))
    assert bodies[TOP] == in_process
    print("\nthe /top body is byte-identical to the in-process payload "
          f"({len(in_process)} bytes)")

    # Repeats hit the LRU: ask the same top twice more and read /info.
    for _ in range(2):
        wsgi_get(app, TOP)
    stats = json.loads(wsgi_get(app, "/info")[2])["cache"]
    print(f"\nhot-query cache after the repeats: "
          f"{stats['hits']} hits / {stats['misses']} misses "
          f"({stats['size']} entries)")

    print(f"\nserve the same snapshot to real clients:\n"
          f"  python -m repro.serve {snapshot} serve --port 8000")


if __name__ == "__main__":
    main()
