"""E22 — array graph engine vs the set/BFS reference implementations.

Every ``graph/`` hot path runs on arrays: vectorized bipartite
projection (degree-bucketed pair enumeration), union-find components,
an O(edges)-per-step threshold sweep, and a level-synchronous batched
SToC frontier.  This experiment runs the whole graph pipeline —
projection → components → threshold profile → SToC — once with the
array engine and once with the set/BFS references in
``tests/oracles.py`` (the legacy implementations) on a power-law
membership world of ``E22_LEFT`` individuals × ``E22_RIGHT`` groups
(default 500k × 20k, the scale of the paper's national registries).

Two tests pin the optimisation contract:

* ``test_graph_parity``: every stage's output is **identical** to the
  legacy one — same edge arrays and weights, same
  component/threshold/SToC labels (exact equality, not approximate) —
  and so are the SToC labels without attributes (τ = ``PLAIN_TAU``).
  It times nothing and writes no result file; CI gates on it.
* ``test_graph_engine_scale``: the same equalities, and the combined
  new-engine pipeline is at least ``E22_MIN_SPEEDUP`` (default 5) times
  faster than the combined legacy pipeline; it writes the result files.

The legacy baseline is given its adjacency sets pre-built outside the
timed region, so the measured gap understates the real one.

Environment knobs (CI runs a scaled-down world):

* ``E22_LEFT`` / ``E22_RIGHT`` — world size (default 500_000 × 20_000);
* ``E22_MIN_SPEEDUP`` — asserted combined speedup floor (default 5).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data.synthetic import random_bipartite_world
from repro.graph.bipartite import project_onto_groups
from repro.graph.components import connected_components
from repro.graph.stoc import stoc_clustering
from repro.graph.threshold import threshold_profile
from repro.report.text import render_table

from benchmarks.conftest import peak_rss_mb, write_bench_json, write_result
from tests import oracles as legacy

N_LEFT = int(os.environ.get("E22_LEFT", "500000"))
N_RIGHT = int(os.environ.get("E22_RIGHT", "20000"))
MIN_SPEEDUP = float(os.environ.get("E22_MIN_SPEEDUP", "5"))
MAX_LEFT_DEGREE = 50
THRESHOLDS = [2.0, 3.0, 4.0, 5.0]
TAU = 0.5
#: SToC's threshold in the parity check without attributes.
PLAIN_TAU = 0.6


def _run_new(bipartite, attributes):
    timings = {}
    t0 = time.perf_counter()
    projection = project_onto_groups(
        bipartite, max_left_degree=MAX_LEFT_DEGREE
    )
    timings["projection"] = time.perf_counter() - t0
    graph = projection.graph

    t0 = time.perf_counter()
    components = connected_components(graph)
    timings["components"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    profile = threshold_profile(graph, THRESHOLDS)
    timings["threshold_profile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stoc = stoc_clustering(graph, attributes, tau=TAU, seed=7)
    timings["stoc"] = time.perf_counter() - t0
    return projection, components, profile, stoc, timings


def _run_legacy(bipartite, attributes, adjacency):
    timings = {}
    t0 = time.perf_counter()
    projection = legacy.project_onto_groups_legacy(
        bipartite, max_left_degree=MAX_LEFT_DEGREE, adjacency=adjacency
    )
    timings["projection"] = time.perf_counter() - t0
    graph = projection.graph

    t0 = time.perf_counter()
    components = legacy.connected_components_legacy(graph)
    timings["components"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    profile = legacy.threshold_profile_legacy(graph, THRESHOLDS)
    timings["threshold_profile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stoc = legacy.stoc_clustering_legacy(graph, attributes, tau=TAU, seed=7)
    timings["stoc"] = time.perf_counter() - t0
    return projection, components, profile, stoc, timings


def _assert_identical(new, old):
    """Exact output parity, stage by stage."""
    projection, components, profile, stoc, _ = new
    l_projection, l_components, l_profile, l_stoc, _ = old
    u, v, w = projection.graph.edge_arrays()
    lu, lv, lw = l_projection.graph.edge_arrays()
    assert np.array_equal(u, lu) and np.array_equal(v, lv)
    assert np.array_equal(w, lw)
    assert list(projection.isolated) == list(l_projection.isolated)
    assert list(projection.skipped_hubs) == list(l_projection.skipped_hubs)
    assert np.array_equal(components.labels, l_components.labels)
    assert components.n_clusters == l_components.n_clusters
    assert profile == l_profile
    assert np.array_equal(stoc.labels, l_stoc.labels)
    assert stoc.n_clusters == l_stoc.n_clusters


def test_graph_parity():
    """Every stage of the array pipeline equals the legacy one, exactly,
    and so does SToC without attributes (untimed)."""
    bipartite, attributes = random_bipartite_world(N_LEFT, N_RIGHT, seed=22)
    adjacency = legacy.left_adjacency_sets(bipartite)
    new = _run_new(bipartite, attributes)
    _assert_identical(new, _run_legacy(bipartite, attributes, adjacency))
    graph = new[0].graph
    plain = stoc_clustering(graph, None, tau=PLAIN_TAU, seed=7)
    reference = legacy.stoc_clustering_legacy(graph, None, tau=PLAIN_TAU,
                                              seed=7)
    assert np.array_equal(plain.labels, reference.labels)
    assert plain.n_clusters == reference.n_clusters


def test_graph_engine_scale(benchmark):
    """Full graph pipeline, new arrays vs legacy sets, identical outputs."""
    bipartite, attributes = random_bipartite_world(N_LEFT, N_RIGHT, seed=22)
    # Legacy head start: adjacency sets built before its clock starts.
    adjacency = legacy.left_adjacency_sets(bipartite)

    def run():
        old = _run_legacy(bipartite, attributes, adjacency)
        new = _run_new(bipartite, attributes)
        return new, old

    (new, old) = benchmark.pedantic(run, rounds=1, iterations=1)
    projection, components, _, stoc, new_t = new
    old_t = old[-1]
    _assert_identical(new, old)

    new_total = sum(new_t.values())
    old_total = sum(old_t.values())
    speedup = old_total / new_total

    rss_mb = peak_rss_mb()
    rows = [
        [stage, f"{old_t[stage]:.3f}", f"{new_t[stage]:.3f}",
         f"{old_t[stage] / new_t[stage]:.1f}x"]
        for stage in ("projection", "components", "threshold_profile",
                      "stoc")
    ]
    rows.append(["TOTAL", f"{old_total:.3f}", f"{new_total:.3f}",
                 f"{speedup:.1f}x"])
    write_result(
        "E22_graph_engine",
        f"Graph pipeline on {N_LEFT}x{N_RIGHT} power-law world "
        f"({bipartite.n_edges} memberships, {projection.graph.n_edges} "
        "projected edges; outputs asserted identical)\n"
        + render_table(["stage", "legacy s", "new s", "speedup"], rows)
        + f"\npeak RSS: {rss_mb:.0f} MB",
    )
    write_bench_json("E22", {
        "n_left": N_LEFT,
        "n_right": N_RIGHT,
        "n_memberships": bipartite.n_edges,
        "n_projected_edges": projection.graph.n_edges,
        "n_components": components.n_clusters,
        "n_stoc_clusters": stoc.n_clusters,
        "max_left_degree": MAX_LEFT_DEGREE,
        "thresholds": THRESHOLDS,
        "tau": TAU,
        "legacy_s": {k: round(s, 4) for k, s in old_t.items()},
        "new_s": {k: round(s, 4) for k, s in new_t.items()},
        "legacy_total_s": round(old_total, 4),
        "new_total_s": round(new_total, 4),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "cpu_count": os.cpu_count(),
    })
    assert speedup >= MIN_SPEEDUP, (
        f"graph pipeline only {speedup:.2f}x faster than the legacy "
        f"baseline (floor {MIN_SPEEDUP}x)"
    )
