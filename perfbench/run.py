"""SCube end-to-end benchmark: one workload per run, one JSON line out.

Run from the repository root::

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each exists, ``layers.json`` which
layer metrics it should move): ``cold_build``, ``timeline_publish``,
``query_mix``, ``director_graph``.  The library is imported from
``src/`` with its defaults; each run is a single process.

``--trace 0`` reports the end-to-end metrics.  Their times, ``setup_s``
included, are at reference speed: each is scaled by how fast a fixed
reference kernel ran right before and after it (``ReferenceKernel`` in
``workloads.py``), because a shared host's speed drifts by tens of
percent within a minute.  ``host_speed`` is the run's median speed
relative to the reference; a measured wall time is about the reported
time divided by it.  ``--trace 1`` is a
separate run of the same workload that reports the per-layer metrics:
every other operation records spans around the calls into each layer,
self times are summed per layer, and ``bench.other_ms`` is the op time
no layer span covers, so the layer times plus ``bench.other_ms`` add up
to ``bench.wall_ms``.  ``bench.trace_overhead_ms`` compares each traced
op with the untraced ops of the same kind in that run (median minus
median, averaged over traced ops).

``timeline_publish`` ignores ``--seconds``: it always publishes 100
dates (about 35 s on 2 vCPUs), so that ``publish_p90_ms`` has at least
10 samples beyond it.

Human-readable lines come first: each workload's own metric names
(``build_s``, ``publish_p50_ms``, ``query_p99_ms``, ``graph_s``, ...,
see ``layers.json``) with units, and ``failed_frac``.  The last line of
standard output is the JSON result.  Each run also appends one record to
``perfbench/results/runs.jsonl``, keyed by workload, seed, git sha,
CPU count and Python version.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The benchmark writes nothing outside perfbench/, bytecode caches included.
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Context, percentile  # noqa: E402

#: Set-up is repeated and its median reported, so one slow set-up
#: (page cache, allocator) does not move ``setup_s``.
SETUP_REPS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("wait_p50_ms", "ms"),
    ("wait_tail_ms", "ms"),
    ("first_answer_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("store_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
]

#: Span name -> additive per-layer metric (self ms per traced op).
SPAN_METRICS = {
    "etl.parse": "etl.parse_ms",
    "itemsets.encode": "itemsets.encode_ms",
    "itemsets.mine": "itemsets.mine_ms",
    "cube.fill": "cube.fill_ms",
    "cube.update": "cube.update_ms",
    "store.dump": "store.dump_ms",
    "store.publish": "store.publish_ms",
    "store.open": "store.open_ms",
    "store.graph_dump": "store.graph_dump_ms",
    "store.graph_open": "store.graph_open_ms",
    "serve.refresh": "serve.refresh_ms",
    "serve.http": "serve.http_ms",
    "serve.cache": "serve.cache_ms",
    "graph.project": "graph.project_ms",
    "graph.components": "graph.components_ms",
    "graph.threshold": "graph.threshold_ms",
    "graph.stoc": "graph.stoc_ms",
    "bench.op": "bench.other_ms",
}
ENDPOINTS = ["top", "slice", "cell", "children", "parents", "pivot", "trend",
             "graph_clusters"]
COUNTS = [
    ("itemsets.n_itemsets", "count"),
    ("cube.n_cells", "count"),
    ("cube.contexts_recomputed", "count"),
    ("cube.cells_recomputed", "count"),
    ("cube.carry_ratio", "ratio"),
    ("store.compactions", "count"),
    ("store.chain_length_max", "count"),
    ("store.bytes_per_publish", "bytes"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("graph.n_edges", "count"),
    ("graph.n_clusters", "count"),
]
#: The additive layer metrics: these plus bench.other_ms = bench.wall_ms.
LAYER_TIMES = [m for m in SPAN_METRICS.values() if m != "bench.other_ms"]
LAYER_TIMES.append("serve.query_ms")
PER_LAYER = (
    [(m, "ms") for m in LAYER_TIMES]
    + [(f"serve.query_ms.{e}.{q}", "ms") for e in ENDPOINTS
       for q in ("p50", "p99")]
    + [("bench.other_ms", "ms"), ("bench.wall_ms", "ms"),
       ("bench.trace_overhead_ms", "ms"), ("bench.traced_ops", "count")]
    + COUNTS
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, setup_s: "list[float]") -> "dict[str, float]":
    wait = workload.wait_ms
    return {
        "setup_s": statistics.median(setup_s),
        "wait_p50_ms": statistics.median(wait),
        "wait_tail_ms": percentile(wait, workload.tail),
        "first_answer_ms": statistics.median(workload.first_ms),
        "ops_per_s": workload.ops_per_s,
        "store_bytes": float(workload.store_bytes),
        "peak_rss_mb": peak_rss_mb(),
    }


def trace_overhead_ms(walls: "dict[tuple[str, bool], list[float]]") -> float:
    """Per traced op: median traced minus median untraced op of its kind.

    Kinds without both traced and untraced ops are left out.
    """
    total = 0.0
    n_traced = 0
    for (kind, traced), samples in walls.items():
        plain = walls.get((kind, False))
        if traced and plain:
            total += len(samples) * (statistics.median(samples)
                                     - statistics.median(plain))
            n_traced += len(samples)
    return total * 1e3 / n_traced if n_traced else 0.0


def per_layer(ctx: Context, workload) -> "dict[str, float]":
    tracer = ctx.tracer
    ops = [s for s in tracer.spans if s[1] == "bench.op"]
    n_ops = max(1, len(ops))
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    by_endpoint: "dict[str, list[float]]" = {e: [] for e in ENDPOINTS}
    for name, self_s in tracer.self_times():
        if name.startswith("serve.query."):
            metric = "serve.query_ms"
            by_endpoint[name.rsplit(".", 1)[1]].append(self_s * 1e3)
        else:
            metric = SPAN_METRICS[name]
        metrics[metric] += self_s * 1e3 / n_ops
    for endpoint, samples in by_endpoint.items():
        if samples:
            metrics[f"serve.query_ms.{endpoint}.p50"] = statistics.median(
                samples)
            metrics[f"serve.query_ms.{endpoint}.p99"] = percentile(
                samples, 99)
    metrics["bench.wall_ms"] = sum(end - start for _, _, start, end, _ in ops
                                   ) * 1e3 / n_ops
    metrics["bench.trace_overhead_ms"] = trace_overhead_ms(ctx.op_walls)
    metrics["bench.traced_ops"] = float(len(ops))
    for name, _ in COUNTS:
        metrics[name] = float(workload.counts.get(name, 0))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, scale: str = "full") -> "dict[str, object]":
    """Set up, measure and check one workload; return the run's record."""
    tracer = Tracer() if trace else None
    setup_s = []
    for rep in range(SETUP_REPS):
        rep_dir = workdir / f"setup-{rep}"
        rep_dir.mkdir(parents=True)
        ctx = Context(rep_dir, seed, scale, tracer,
                      reference=WORKLOADS[name].reference)
        workload = WORKLOADS[name](ctx)
        start = time.perf_counter()
        workload.setup()
        setup_s.append((time.perf_counter() - start) * ctx.rescale())
        if rep < SETUP_REPS - 1:
            del workload
            gc.collect()
            shutil.rmtree(rep_dir)
    workload.measure(seconds)
    if trace:
        metrics, units = per_layer(ctx, workload), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(workload, setup_s), dict(END_TO_END)
    named = dict(workload.named)
    named["failed_frac"] = (ctx.failed / max(1, ctx.attempted), "ratio")
    named["host_speed"] = (ctx.speed(), "ratio")
    return {
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "counts": dict(workload.counts),
    }


def git_sha(root: Path) -> str:
    """HEAD's commit of ``root``, or ``"unknown"`` outside a git checkout.

    The ceiling keeps git from finding a repository above ``root``.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def append_record(path: Path, key: "dict[str, object]",
                  result: "dict[str, object]") -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        **key,
        "at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **result,
    }
    with path.open("a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            workdir.parent.rmdir()
    key = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    append_record(ROOT / "perfbench" / "results" / "runs.jsonl", key, result)

    print("# " + " ".join(f"{k}={v}" for k, v in key.items()))
    for name, entry in result["named"].items():
        print(f"#   {name:<22} {entry['value']:>14.6g} {entry['unit']}")
    for name, entry in result["metrics"].items():
        print(f"#   {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
