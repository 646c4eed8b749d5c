"""Guards for the benchmark itself, at a tiny scale.

Same-seed runs must give the same work counts, every metric must be
emitted with its unit, no operation may fail, and the traced layer
self times plus ``bench.other_ms`` must add up to ``bench.wall_ms``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import workloads
from spans import TimedProxy, Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: Work counts that must repeat exactly for the same seed.
DETERMINISTIC = [
    "itemsets.n_itemsets", "cube.n_cells", "cube.contexts_recomputed",
    "cube.cells_recomputed", "store.compactions", "graph.n_edges",
    "graph.n_clusters",
]
_cache: "dict[tuple[str, bool, int], dict]" = {}


def _run(tmp_path_factory, workload: str, trace: bool, rep: int = 0):
    key = (workload, trace, rep)
    if key not in _cache:
        workdir = tmp_path_factory.mktemp(workload) / "work"
        _cache[key] = run.run_workload(workload, seed=3, seconds=0.2,
                                       trace=trace, workdir=workdir,
                                       scale="tiny")
    return _cache[key]


@pytest.fixture(params=sorted(run.WORKLOADS))
def workload(request):
    return request.param


def test_benchmark_json_lists_the_emitted_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        run.PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == \
        sorted(run.WORKLOADS)


def test_untraced_run_emits_every_end_to_end_metric(tmp_path_factory,
                                                    workload):
    result = _run(tmp_path_factory, workload, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["named"]["failed_frac"]["value"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_layer_metric(tmp_path_factory, workload):
    result = _run(tmp_path_factory, workload, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(run.PER_LAYER)


def test_layer_self_times_add_up_to_wall(tmp_path_factory, workload):
    metrics = _run(tmp_path_factory, workload, trace=True)["metrics"]
    layers = sum(metrics[name]["value"] for name in run.LAYER_TIMES)
    total = layers + metrics["bench.other_ms"]["value"]
    assert metrics["bench.traced_ops"]["value"] >= 1
    assert math.isclose(total, metrics["bench.wall_ms"]["value"],
                        rel_tol=1e-9)
    assert metrics["bench.other_ms"]["value"] >= 0


def test_same_seed_gives_same_counts(tmp_path_factory, workload):
    first = _run(tmp_path_factory, workload, trace=True)["metrics"]
    second = _run(tmp_path_factory, workload, trace=True, rep=1)["metrics"]
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name


def test_counts_are_measured_where_the_layer_runs(tmp_path_factory):
    counts = {name: _run(tmp_path_factory, name, trace=True)["metrics"]
              for name in run.WORKLOADS}
    assert counts["cold_build"]["itemsets.n_itemsets"]["value"] > 0
    assert counts["timeline_publish"]["store.compactions"]["value"] >= 1
    assert counts["timeline_publish"]["cube.cells_recomputed"]["value"] > 0
    assert counts["director_graph"]["graph.n_clusters"]["value"] > 0
    assert counts["query_mix"]["graph.n_edges"]["value"] == 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.activated():
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
    spans = {s[0]: s for s in tracer.spans}
    selfs = dict(zip((s[0] for s in tracer.spans), tracer.self_times()))
    outer = next(s for s in tracer.spans if s[1] == "outer")
    inner_total = sum(s[3] - s[2] for s in tracer.spans if s[1] == "inner")
    assert math.isclose(selfs[outer[0]][1],
                        outer[3] - outer[2] - inner_total, abs_tol=1e-12)
    assert all(spans[s[4]][1] == "outer" for s in tracer.spans
               if s[1] == "inner")


def test_trace_overhead_compares_ops_of_one_kind():
    walls = {
        ("fast", True): [0.002, 0.002], ("fast", False): [0.001],
        ("slow", True): [1.004], ("slow", False): [1.0, 1.0],
        ("alone", True): [5.0],
    }
    # (2 x 1 ms + 1 x 4 ms) / 3 traced ops; "alone" has nothing to compare.
    assert math.isclose(run.trace_overhead_ms(walls), 2.0)


def test_calibrated_ops_are_scaled_to_reference_speed(tmp_path):
    ctx = workloads.Context(tmp_path, seed=1, scale="tiny", tracer=None)
    with ctx.op(0, "calibrated") as sample:
        pass
    assert len(ctx.references) == 3
    assert sample.scale == 2 * ctx.kernel.reference_s / sum(
        ctx.references[1:])
    with ctx.op(1, "stretch", calibrated=False) as sample:
        pass
    assert sample.scale == 1.0 and len(ctx.references) == 3
    assert ctx.speed() > 0


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []


def test_proxy_forwards_attributes_and_times_methods():
    class Target:
        value = 7

        def query(self, x):
            return x + 1

        def successor(self):
            return Target()

    tracer = Tracer()
    proxy = TimedProxy(Target(), tracer, {"query": "layer.query"},
                       rewrap=("successor",))
    with tracer.activated():
        assert proxy.value == 7
        assert proxy.query(1) == 2
        successor = proxy.successor()
        assert isinstance(successor, TimedProxy)
        assert successor.query(2) == 3
    assert [s[1] for s in tracer.spans] == ["layer.query", "layer.query"]
