"""E20 — HTTP serving tier under multi-reader load.

Serving is zero-rebuild: a snapshot opens without ETL, mining or fill.
This experiment pins the HTTP tier built on top: the WSGI app over one
snapshot (hit in-process — no TCP, so the numbers are the serving
stack, not the kernel's socket path) answering a mixed query workload
from a pool of reader threads, in two configurations:

* ``cold`` — response cache disabled, every request is answered
  afresh: ``/top`` ranks and renders, ``/pivot`` recomputes, and a cell
  list joins the per-row JSON fragments its service rendered the first
  time it listed each row;
* ``warm`` — default response cache, the workload fits, steady-state
  hits.

Reported per configuration: throughput (QPS) and p50/p99 latency.

Two tests pin the tier's contract, and CI gates on both.
``test_http_parity`` checks every body of the mix three ways: the
cache-off app's, the cached app's (computed, then served from the
cache) and ``payloads.dumps(<payload fn>(service, ...))`` of an
in-process service.  The two apps render cell lists through the same
per-row fragments, so the in-process payloads are the reference that
shares no rendering with them.  ``test_http_serving_load`` runs the
load and asserts that the warm-cache ``/top`` beats the cold one by
>= 50x, and that the warm p99 is below the cold p50: a warm hit returns
stored response bytes, so no request of the mix, the 1,712-cell
``/slice`` included, renders or joins anything.  Numbers land in
``results/E20_http_serving.txt`` and ``results/BENCH_E20.json``.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cube.builder import SegregationDataCubeBuilder
from repro.report.text import render_table
from repro.serve import payloads
from repro.serve.http import make_app, wsgi_get
from repro.serve.service import CubeService
from repro.store.snapshot import dump_snapshot

from benchmarks.bench_cube_fill import FILL_ROWS, LIMITS, _fill_table
from benchmarks.conftest import write_bench_json, write_result

N_THREADS = 8
N_REQUESTS = 320
TOP_REPS = 60
MIN_WARM_TOP_SPEEDUP = 50.0

#: Deeper context itemsets than E17/E18: a denser cube makes the cold
#: ranking path representative of real serving (more cells to scan per
#: /top) while the warm path stays k-bounded.
E20_LIMITS = {**LIMITS, "max_ca_items": 3}

TOP_QUERY = "/top?index=D&k=50&min_minority=30"

#: One steady-state dashboard's worth of distinct queries: ranking,
#: slicing, point lookups, navigation and a pivot, cycled by the pool.
QUERY_MIX = [
    TOP_QUERY,
    "/top?index=G&k=20",
    "/slice?ca=r%3Dr0",
    "/slice?sa=g%3Dg1",
    "/cell?sa=g%3Dg0&ca=r%3Dr0",
    "/children?ca=r%3Dr0",
    "/parents?sa=g%3Dg0&ca=r%3Dr0",
    "/pivot?index=D&rows=g&cols=r",
]


def _snapshot(path):
    """E20's cube, dumped to ``path``; returns its cell count."""
    table, schema = _fill_table(FILL_ROWS)
    cube = SegregationDataCubeBuilder(**E20_LIMITS).build(table, schema)
    dump_snapshot(cube, path)
    return len(cube)


def _run_load(app, n_requests: int = N_REQUESTS,
              n_threads: int = N_THREADS):
    """Hammer the app from a thread pool; per-request latencies + QPS."""

    def one(i: int) -> float:
        query = QUERY_MIX[i % len(QUERY_MIX)]
        start = time.perf_counter()
        status, _, _ = wsgi_get(app, query)
        elapsed = time.perf_counter() - start
        assert status == 200, f"{query} -> {status}"
        return elapsed

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        start = time.perf_counter()
        latencies = sorted(pool.map(one, range(n_requests)))
        wall = time.perf_counter() - start
    return {
        "qps": n_requests / wall,
        "p50_ms": latencies[len(latencies) // 2] * 1e3,
        "p99_ms": latencies[int(len(latencies) * 0.99) - 1] * 1e3,
        "wall_s": wall,
    }


def _bodies(app) -> "list[bytes]":
    bodies = []
    for query in QUERY_MIX:
        status, _, body = wsgi_get(app, query)
        assert status == 200, f"{query} -> {status}"
        bodies.append(body)
    return bodies


def _in_process_bodies(service) -> "list[bytes]":
    """The mix's bodies from the in-process payload functions."""
    g0, g1, r0 = {"g": "g0"}, {"g": "g1"}, {"r": "r0"}
    payload = {
        TOP_QUERY: lambda: payloads.top_payload(
            service, "D", k=50, min_minority=30),
        "/top?index=G&k=20": lambda: payloads.top_payload(service, "G", k=20),
        "/slice?ca=r%3Dr0": lambda: payloads.cells_payload(
            service, service.slice(ca=r0)),
        "/slice?sa=g%3Dg1": lambda: payloads.cells_payload(
            service, service.slice(sa=g1)),
        "/cell?sa=g%3Dg0&ca=r%3Dr0": lambda: payloads.cell_payload(
            service, service.cell(sa=g0, ca=r0)),
        "/children?ca=r%3Dr0": lambda: payloads.cells_payload(
            service, service.children(ca=r0)),
        "/parents?sa=g%3Dg0&ca=r%3Dr0": lambda: payloads.cells_payload(
            service, service.parents(sa=g0, ca=r0)),
        "/pivot?index=D&rows=g&cols=r": lambda: payloads.pivot_payload(
            service, "D", "g", "r"),
    }
    return [payloads.dumps(payload[query]()) for query in QUERY_MIX]


def _median_latency_ms(app, query: str, reps: int = TOP_REPS) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        status, _, _ = wsgi_get(app, query)
        samples.append(time.perf_counter() - start)
        assert status == 200
    return statistics.median(samples) * 1e3


def test_http_parity(tmp_path):
    """Every body of the mix equals the in-process payload's and the
    cache-off app's, cached or not."""
    _snapshot(tmp_path / "snap")
    cold = make_app(tmp_path / "snap", cache_size=0)
    warm = make_app(tmp_path / "snap")
    reference = _in_process_bodies(CubeService(tmp_path / "snap"))
    assert _bodies(cold) == reference
    # The first round computes each answer; the second must come from
    # the cache, with the same bytes.
    assert _bodies(warm) == reference
    first = warm.service.cache.stats()
    assert _bodies(warm) == reference
    second = warm.service.cache.stats()
    hits = second["hits"] - first["hits"]
    misses = second["misses"] - first["misses"]
    assert (hits, misses) == (len(QUERY_MIX), 0)


def test_http_serving_load(benchmark, tmp_path):
    """Warm /top >= 50x cold /top, warm p99 < cold p50; QPS and latency
    per configuration."""
    n_cells = _snapshot(tmp_path / "snap")
    apps = {
        "cold": make_app(tmp_path / "snap", cache_size=0),
        "warm": make_app(tmp_path / "snap"),
    }
    # Prime the warm cache and every lazy structure, so "cold" below
    # means cache-off, not first-touch.
    for app in apps.values():
        _bodies(app)

    results = {}

    def run():
        for name, app in apps.items():
            results[name] = _run_load(app)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    cold_top_ms = _median_latency_ms(apps["cold"], TOP_QUERY)
    warm_top_ms = _median_latency_ms(apps["warm"], TOP_QUERY)
    top_speedup = cold_top_ms / warm_top_ms

    cache_stats = apps["warm"].service.cache.stats()
    assert cache_stats["hits"] > cache_stats["misses"]

    rows = [
        [name, f"{r['qps']:.0f}", f"{r['p50_ms']:.3f}", f"{r['p99_ms']:.3f}"]
        for name, r in results.items()
    ] + [
        ["cold /top (median)", "", f"{cold_top_ms:.3f}", ""],
        ["warm /top (median)", "", f"{warm_top_ms:.3f}", ""],
    ]
    write_result(
        "E20_http_serving",
        f"HTTP serving tier at {FILL_ROWS} rows / {n_cells} cells, "
        f"{N_THREADS} reader threads x {N_REQUESTS} requests over "
        f"{len(QUERY_MIX)} distinct queries (byte parity: "
        f"test_http_parity); warm /top {top_speedup:.1f}x faster than "
        "cold\n"
        + render_table(["configuration", "QPS", "p50 (ms)", "p99 (ms)"],
                       rows),
    )
    write_bench_json("E20", {
        "rows": FILL_ROWS,
        "cells": n_cells,
        "n_threads": N_THREADS,
        "n_requests": N_REQUESTS,
        "query_mix": len(QUERY_MIX),
        **{
            name: {
                "qps": r["qps"], "p50_ms": r["p50_ms"], "p99_ms": r["p99_ms"],
            }
            for name, r in results.items()
        },
        "cold_top_ms": cold_top_ms,
        "warm_top_ms": warm_top_ms,
        "warm_top_speedup": top_speedup,
        "min_warm_top_speedup_required": MIN_WARM_TOP_SPEEDUP,
    })
    assert top_speedup >= MIN_WARM_TOP_SPEEDUP, (
        f"warm-cache /top only {top_speedup:.1f}x faster than cold "
        f"(need >= {MIN_WARM_TOP_SPEEDUP}x)"
    )
    assert results["warm"]["p99_ms"] < results["cold"]["p50_ms"], (
        f"warm p99 {results['warm']['p99_ms']:.3f} ms is not below "
        f"cold p50 {results['cold']['p50_ms']:.3f} ms"
    )
