"""The four SCube benchmark workloads.

Each workload generates its inputs from the seed in :meth:`setup`
(untimed, reported as ``setup_s``), runs closed-loop operations through
the library's public API in :meth:`measure`, and checks every output
outside the timed region.  Operations run inside :meth:`Context.op`,
which times them and, in a traced run, records spans for every other
operation so that traced and untraced operations interleave.

Every time a workload reports is at reference speed: the measured time
scaled by how fast a :class:`ReferenceKernel` ran next to it, so that the
host's drift during and between runs does not show as a change.

Scales: ``"full"`` is what ``run.py`` measures; ``"tiny"`` is for the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from urllib.parse import quote

import numpy as np

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import (
    random_bipartite_world,
    random_final_table,
    write_random_final_table_csv,
)
from repro.etl.stream import stream_csv
from repro.graph.bipartite import project_onto_groups
from repro.graph.components import connected_components
from repro.graph.stoc import stoc_clustering
from repro.graph.threshold import threshold_profile
from repro.itemsets.transactions import EncodeAccumulator, encode_table
from repro.serve import payloads
from repro.serve.cache import CachedCubeService
from repro.serve.graph import GraphService
from repro.serve.http import make_app, wsgi_get
from repro.serve.router import open_service
from repro.store import (
    CubeTimeline,
    dump_into_timeline,
    dump_snapshot,
    read_timeline_manifest,
    snapshot_disk_bytes,
)
from repro.store.graph import (
    GraphArtifact,
    dump_graph_snapshot,
    validate_graph_snapshot,
)

from spans import TimedProxy, Tracer

SA = {"g": 2, "a": 4, "b": 3}
TOP_QUERY = "/top?index=D&k=10"

#: Spans recorded by the proxy in front of the cube service: one per
#: endpoint's underlying query method.
QUERY_SPANS = {
    "top": "serve.query.top",
    "slice": "serve.query.slice",
    "cell": "serve.query.cell",
    "children": "serve.query.children",
    "parents": "serve.query.parents",
    "pivot": "serve.query.pivot",
    "pivot_values": "serve.query.pivot",
    "trend": "serve.query.trend",
}
#: Spans recorded by the proxy in front of the hot-query cache.
CACHE_SPANS = {
    **{method: "serve.cache" for method in QUERY_SPANS},
    "value": "serve.cache",
    "refresh": "serve.refresh",
}
GRAPH_SPANS = {"clusters": "serve.query.graph_clusters"}

class ReferenceKernel:
    """A fixed kernel, timed next to each operation to gauge the host.

    On a shared host the speed of a core drifts by tens of percent
    within a minute (neighbours, frequency, caches), and process CPU
    time drifts with it.  Scaling an operation's time by
    ``reference_s / kernel time`` takes most of the drift out, when the
    kernel is held back by what holds the operation back, so a workload
    picks the parts that do: ``interpreter``, a dict-update loop;
    ``sort``, a sort of 400k floats in cache; ``gather``, a random
    gather from a 32 MB array, bound by memory.
    """

    #: Seconds each part takes at reference speed (about its time on an
    #: idle core of a 2-vCPU cloud VM).
    PART_S = {"interpreter": 0.012, "sort": 0.0035, "gather": 0.014}

    def __init__(self, parts: "tuple[str, ...]"):
        self.parts = parts
        self.reference_s = sum(self.PART_S[part] for part in parts)
        rng = np.random.default_rng(0)
        self._sorted = rng.random(400_000)
        self._buffer = np.empty_like(self._sorted)
        if "gather" in parts:
            self._values = rng.random(4_000_000)
            self._index = rng.integers(0, 4_000_000, 1_000_000)

    def __call__(self) -> float:
        """Run the kernel; return the seconds it took."""
        start = time.perf_counter()
        if "interpreter" in self.parts:
            counts: "dict[int, int]" = {}
            for i in range(80_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + i
        if "sort" in self.parts:
            self._buffer[:] = self._sorted
            self._buffer.sort()
        if "gather" in self.parts:
            self._values.take(self._index).sum()
        return time.perf_counter() - start


class Sample:
    """Handed out by :meth:`Context.op`; ``scale`` is set when it ends."""

    scale = 1.0


class Context:
    """Per-run state: work directory, tracer, op timing and failures."""

    def __init__(self, workdir: Path, seed: int, scale: str,
                 tracer: "Tracer | None",
                 reference: "tuple[str, ...]" = ("interpreter", "sort")):
        self.workdir = workdir
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        #: Reference-speed seconds of ops by ``(kind, traced)`` (traced
        #: runs only).
        self.op_walls: "dict[tuple[str, bool], list[float]]" = {}
        self.busy = 0.0
        self.kernel = ReferenceKernel(reference)
        #: Every reference kernel time of the run (the first is warm-up).
        self.references = [self.kernel()]
        self.references.append(self.kernel())

    def rescale(self) -> float:
        """Time the reference kernel again; return the factor that turns
        a time measured since the previous kernel into reference speed."""
        previous = self.references[-1]
        self.references.append(self.kernel())
        return 2 * self.kernel.reference_s / (previous + self.references[-1])

    def speed(self) -> float:
        """The host's median speed in the run, relative to the reference."""
        return self.kernel.reference_s / statistics.median(
            self.references[1:])

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @contextlib.contextmanager
    def op(self, index: int, kind: str, calibrated: bool = True):
        """One timed operation; traced when ``index`` is odd.

        ``kind`` groups ops that do the same work, so the tracing
        overhead compares traced and untraced ops of one kind only.
        A ``calibrated`` op is followed by the reference kernel, and the
        yielded :class:`Sample`'s ``scale`` turns its times into
        reference speed; query_mix's requests, far shorter than the
        kernel, are not calibrated one by one (it rescales whole
        stretches of them).
        """
        sample = Sample()
        start = time.perf_counter()
        traced = index % 2 == 1
        if self.tracer is None:
            yield sample
        else:
            with self.tracer.activated(traced), self.tracer.span("bench.op"):
                yield sample
        elapsed = time.perf_counter() - start
        if calibrated:
            sample.scale = self.rescale()
        self.busy += elapsed
        if self.tracer is not None:
            self.op_walls.setdefault((kind, traced), []).append(
                elapsed * sample.scale)

    def indices(self, seconds: float, min_ops: int):
        """Op indices until ``seconds`` of op time and ``min_ops`` ops."""
        for index in itertools.count():
            if self.busy >= seconds and index >= min_ops:
                return
            yield index

    def attempt(self, fn) -> bool:
        """Run one operation-and-check; count it, and count its failure."""
        try:
            ok = bool(fn())
        except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.record(ok)
        return ok

    def record(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n

    def serving(self, service):
        """``service`` behind the default hot-query cache, as make_app
        builds it from a path; with timing proxies in a traced run."""
        if self.tracer is None:
            return CachedCubeService(service)
        inner = TimedProxy(service, self.tracer, QUERY_SPANS,
                           rewrap=("refreshed",))
        return TimedProxy(CachedCubeService(inner), self.tracer, CACHE_SPANS)

    def get(self, app, query: str, method: str = "GET"):
        with self.span("serve.http"):
            return wsgi_get(app, query, method=method)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Workload:
    """Base: subclasses fill ``wait_ms`` / ``first_ms`` and ``counts``."""

    name = ""
    tail = 90          # the tail percentile reported as wait_tail_ms
    #: The reference kernel parts whose drift tracks this workload's:
    #: interpreter and in-cache numpy work for the cube workloads.
    reference = ("interpreter", "sort")
    params: "dict[str, dict[str, object]]" = {}

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.p = self.params[ctx.scale]
        self.wait_ms: "list[float]" = []
        self.first_ms: "list[float]" = []
        self.store_bytes = 0
        self.counts: "dict[str, float]" = {}
        self.named: "dict[str, tuple[float, str]]" = {}
        self.ops_per_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def _rate(self) -> float:
        return len(self.wait_ms) / (sum(self.wait_ms) / 1e3)


# ----------------------------------------------------------------------
# cold_build: CSV on disk -> published snapshot -> first answer
# ----------------------------------------------------------------------


class ColdBuild(Workload):
    name = "cold_build"
    #: A run holds ~25 builds of the same CSV, so p90 would rest on two
    #: or three samples; p75 is the gated tail.
    tail = 75
    params = {
        "full": {"rows": 30_000, "min_ops": 5},
        "tiny": {"rows": 3_000, "min_ops": 2},
    }
    #: Fractional thresholds: the lattice keeps its shape at any row
    #: count, and CSV parsing stays near half of a build.
    limits = {"min_population": 0.01, "min_minority": 0.005,
              "max_sa_items": 3, "max_ca_items": 3}

    def setup(self):
        self.csv = self.ctx.workdir / "final_table.csv"
        self.schema = write_random_final_table_csv(
            self.csv, self.p["rows"], n_units=200, sa_attributes=SA,
            ca_attributes={"r": 5, "s": 4}, multi_valued_ca={"mv": 4},
            seed=self.ctx.seed, skew=0.5,
        )

    def _builder(self) -> SegregationDataCubeBuilder:
        builder = SegregationDataCubeBuilder(**self.limits)
        if self.ctx.tracer is not None:
            mine = builder.mine_coordinates

            def traced_mine(db):
                with self.ctx.span("itemsets.mine"):
                    return mine(db)

            builder.mine_coordinates = traced_mine
        return builder

    def _one(self, index: int) -> bool:
        ctx = self.ctx
        path = ctx.workdir / f"snapshot-{index}"
        gc.collect()   # a first build runs in a fresh process
        with ctx.op(index, "build") as sample:
            start = time.perf_counter()
            accumulator = EncodeAccumulator(self.schema)
            chunks = stream_csv(self.csv, schema=self.schema)
            while True:
                with ctx.span("etl.parse"):
                    chunk = next(chunks, None)
                if chunk is None:
                    break
                with ctx.span("itemsets.encode"):
                    accumulator.add_chunk(chunk)
            with ctx.span("itemsets.encode"):
                db = accumulator.finalize()
            builder = self._builder()
            with ctx.span("cube.fill"):
                cube = builder.build_from_transactions(db)
            with ctx.span("store.dump"):
                dump_snapshot(cube, path)
            built = time.perf_counter()
            with ctx.span("store.open"):
                service = open_service(path)
            app = make_app(ctx.serving(service))
            status, _, body = ctx.get(app, TOP_QUERY)
            answered = time.perf_counter()
        self.wait_ms.append(_ms(built - start) * sample.scale)
        self.first_ms.append(_ms(answered - built) * sample.scale)
        self.store_bytes = snapshot_disk_bytes(path)
        self.counts["itemsets.n_itemsets"] = cube.metadata.extra[
            "n_mined_itemsets"]
        self.counts["cube.n_cells"] = len(cube)
        live = open_service(cube)
        expected = payloads.dumps(payloads.top_payload(live, "D", 10))
        ok = (status == 200 and body == expected
              and check_same_cells(cube, service.cube, atol=0.0) == [])
        shutil.rmtree(path)
        return ok

    def measure(self, seconds):
        for index in self.ctx.indices(seconds, self.p["min_ops"]):
            self.ctx.attempt(lambda: self._one(index))
        self.ops_per_s = self._rate()
        self.named = {
            "build_s": (statistics.median(self.wait_ms) / 1e3, "s"),
            "first_answer_ms": (statistics.median(self.first_ms), "ms"),
            "store_bytes": (self.store_bytes, "bytes"),
        }


# ----------------------------------------------------------------------
# timeline_publish: closed-mode incremental dates, published and served
# ----------------------------------------------------------------------


class TimelinePublish(Workload):
    name = "timeline_publish"
    params = {
        "full": {"rows": 40_000, "dates": 101, "first_reps": 100},
        "tiny": {"rows": 2_000, "dates": 11, "first_reps": 2},
    }
    limits = {"min_population": 40, "min_minority": 10,
              "max_sa_items": 2, "max_ca_items": 2}
    TREND_QUERY = "/trend?index=D&sa=g%3Dg0&ca=r%3Dr0&ca=s%3Ds0"

    def _masks(self, table) -> "list[np.ndarray]":
        """~1% of rows sit out per date (~2% churn), in one context only.

        Only rows of the ``r0 & s0`` context with an empty multi-valued
        CA set ever churn, so every other context is untouched.
        """
        rows = self.p["rows"]
        pool_mask = (table.categorical("r").mask_eq("r0")
                     & table.categorical("s").mask_eq("s0"))
        pool_mask &= np.fromiter(
            (len(v) == 0 for v in table.multivalued("mv").values()),
            dtype=bool, count=rows,
        )
        pool = np.flatnonzero(pool_mask)
        rng = np.random.default_rng(self.ctx.seed + 1)
        masks = []
        for _ in range(self.p["dates"]):
            mask = np.ones(rows, dtype=bool)
            mask[rng.choice(pool, size=rows // 100, replace=False)] = False
            masks.append(mask)
        return masks

    def setup(self):
        table, schema = random_final_table(
            self.p["rows"], 60, sa_attributes=SA,
            ca_attributes={"r": 3, "s": 3}, multi_valued_ca={"mv": 4},
            seed=self.ctx.seed, skew=0.5,
        )
        self.masks = self._masks(table)
        self.union_db = encode_table(table, schema)
        self.engine = TemporalCubeEngine(
            self.union_db,
            SegregationDataCubeBuilder(engine="incremental", mode="closed",
                                       **self.limits),
        )
        self.root = self.ctx.workdir / "timeline"
        self.state = self.engine.build_at(self.masks[0], 0)
        dump_into_timeline(self.root, 0, self.state.cube)
        self.app = make_app(self.ctx.serving(open_service(self.root)))

    def _publish(self, date: int) -> bool:
        ctx = self.ctx
        parent = self.state.cube
        with ctx.op(date, "publish") as sample:
            start = time.perf_counter()
            with ctx.span("cube.update"):
                self.state = self.engine.update(
                    self.state, self.masks[date], date)
            with ctx.span("store.publish"):
                dump_into_timeline(
                    self.root, date, self.state.cube,
                    parent_date=date - 1, parent=parent, compact=True,
                )
            refresh = ctx.get(self.app, "/refresh", method="POST")
            top = ctx.get(self.app, TOP_QUERY)
            elapsed = time.perf_counter() - start
        self.wait_ms.append(_ms(elapsed) * sample.scale)
        extra = self.state.cube.metadata.extra
        for key, name in (("n_recomputed_contexts", "contexts_recomputed"),
                          ("n_recomputed_cells", "cells_recomputed"),
                          ("n_carried_cells", "carried"),
                          ("n_carried_cells_within_affected", "carried")):
            self.totals[name] = self.totals.get(name, 0) + extra[key]
        self.totals["cells"] = self.totals.get("cells", 0) + len(
            self.state.cube)
        self.last_top = top[2]
        return (refresh[0] == 200 and refresh[2] == b'{"refreshed":true}'
                and top[0] == 200 and self.app.service.date == date)

    def _fresh(self, index: int, trend: bool) -> bool:
        """Restart-to-answer: a fresh app over the published timeline."""
        ctx = self.ctx
        gc.collect()   # a restarted server starts from a clean heap
        with ctx.op(index, "trend" if trend else "restart") as sample:
            start = time.perf_counter()
            with ctx.span("store.open"):
                service = open_service(self.root)
            app = make_app(ctx.serving(service))
            status, _, body = ctx.get(app, TOP_QUERY)
            answered = time.perf_counter()
            if trend:
                t_status, _, t_body = ctx.get(app, self.TREND_QUERY)
                trended = time.perf_counter()
        self.first_ms.append(_ms(answered - start) * sample.scale)
        ok = status == 200 and body == self.last_top
        if trend:
            self.named["trend_ms"] = (
                _ms(trended - answered) * sample.scale, "ms")
            dates = json.loads(t_body) if t_status == 200 else []
            ok = ok and len(dates) == self.p["dates"]
        return ok

    def _matches_scratch(self, date: int) -> bool:
        scratch = SegregationDataCubeBuilder(
            mode="closed", **self.limits
        ).build_from_transactions(self.union_db.restrict(self.masks[date]))
        resolved = CubeTimeline(self.root).at(date)
        return check_same_cells(resolved, scratch, atol=0.0) == []

    def measure(self, seconds):
        """Publish every date; ``seconds`` is not used.

        The run is a fixed 100 publishes so that at least 10 samples lie
        beyond ``publish_p90_ms``; on 2 vCPUs it takes about 35 s.
        """
        ctx = self.ctx
        self.totals: "dict[str, int]" = {}
        dates = range(1, self.p["dates"])
        # Restarts are spread over the run (every `every` dates), so they
        # sample the same machine conditions as the publishes.  A
        # restart's cost grows with the chain it opens (~12 to ~80 ms), so
        # the full run restarts after every date: each chain length is
        # opened about equally often, ~11 times, and the median is steady.
        every = len(dates) // self.p["first_reps"]
        for date in dates:
            ctx.attempt(lambda: self._publish(date))
            if date % every == 0:
                ctx.attempt(lambda: self._fresh(date // every, False))
        self.ops_per_s = self._rate()
        # One trend op, traced in a traced run (odd index).
        ctx.attempt(lambda: self._fresh(1, True))
        last = self.p["dates"] - 1
        for date in (0, last // 2, last):
            ctx.attempt(lambda: self._matches_scratch(date))

        manifest = read_timeline_manifest(self.root)["dates"]
        chains = [manifest[str(d)]["chain_length"] for d in dates]
        own = [manifest[str(d)]["own_bytes"] for d in dates]
        self.store_bytes = _dir_bytes(self.root)
        self.counts.update({
            "cube.n_cells": len(self.state.cube),
            "cube.contexts_recomputed": self.totals["contexts_recomputed"],
            "cube.cells_recomputed": self.totals["cells_recomputed"],
            "cube.carry_ratio": self.totals["carried"] / self.totals["cells"],
            "store.compactions": sum(1 for c in chains if c == 0),
            "store.chain_length_max": max(chains),
            "store.bytes_per_publish": sum(own) / len(own),
        })
        self.named.update({
            "publish_p50_ms": (statistics.median(self.wait_ms), "ms"),
            "publish_p90_ms": (percentile(self.wait_ms, 90), "ms"),
            "first_answer_ms": (statistics.median(self.first_ms), "ms"),
            "store_bytes": (self.store_bytes, "bytes"),
        })


# ----------------------------------------------------------------------
# query_mix: a closed-loop client against the cached HTTP app
# ----------------------------------------------------------------------


def _coordinate_params(dictionary, items, name: str) -> "list[str]":
    params = []
    for item_id in sorted(items, key=lambda i: str(dictionary.item(i))):
        item = dictionary.item(item_id)
        params.append(f"{name}={quote(f'{item.attribute}={item.value}')}")
    return params


def _coordinates(dictionary, items) -> "dict[str, object] | None":
    out: "dict[str, object]" = {}
    for item_id in sorted(items, key=lambda i: str(dictionary.item(i))):
        item = dictionary.item(item_id)
        if item.attribute in out:
            previous = out[item.attribute]
            out[item.attribute] = (
                previous if isinstance(previous, list) else [previous]
            ) + [item.value]
        else:
            out[item.attribute] = item.value
    return out or None


#: Zipf exponent of query popularity: YCSB's default request
#: distribution ("zipfian", constant 0.99; Cooper et al., SoCC 2010).
ZIPF_S = 0.99
#: Phases of the stream, each with its own popularity ranking.  With one
#: ranking the ten hottest queries carry ~28% of the traffic, and which
#: ten the seed picks moved query_p50_ms by up to ±15% between seeds;
#: eight independent hot sets per run average that out.
HOT_PHASES = 8


class QueryMix(Workload):
    """One closed-loop client against the cached app.

    The service runs under the interpreter lock, so a second client
    thread adds no throughput, only lock handoffs: with two clients the
    p90 latency of one seed moved by 40% between runs minutes apart on
    the same 2-vCPU VM, as the handoffs changed with the host's load.
    """

    name = "query_mix"
    params = {
        "full": {"rows": 40_000, "min_population": 20, "min_minority": 5,
                 "stream": 8_000, "first_reps": 10, "stretches": 40},
        "tiny": {"rows": 3_000, "min_population": 60, "min_minority": 20,
                 "stream": 400, "first_reps": 2, "stretches": 4},
    }

    def _universe(self, service) -> "dict[str, object]":
        """Every query the stream draws from: ``query -> body fn``.

        Point and navigation queries for every cell, one slice per
        ``r`` x ``s`` context, ``/top`` per index at two k, and two
        pivots per index.
        """
        dictionary = service.dictionary
        queries = {}
        for key in service.cube.keys():
            sa, ca = key
            qs = "&".join(_coordinate_params(dictionary, sa, "sa")
                          + _coordinate_params(dictionary, ca, "ca"))
            coords = {"sa": _coordinates(dictionary, sa),
                      "ca": _coordinates(dictionary, ca)}
            for endpoint in ("cell", "children", "parents"):
                method = getattr(service, endpoint)
                payload = (payloads.cell_payload if endpoint == "cell"
                           else payloads.cells_payload)
                queries[f"/{endpoint}?{qs}"] = (
                    lambda m=method, f=payload, c=coords: f(service, m(**c)))
        for r, s in itertools.product(range(5), range(4)):
            queries[f"/slice?ca=r%3Dr{r}&ca=s%3Ds{s}"] = (
                lambda c={"r": f"r{r}", "s": f"s{s}"}: payloads.cells_payload(
                    service, service.slice(ca=c)))
        for index in service.index_names:
            for k in (10, 50):
                queries[f"/top?index={index}&k={k}"] = (
                    lambda i=index, k=k: payloads.top_payload(service, i, k))
            for rows, cols in (("g", "r"), ("a", "s")):
                queries[f"/pivot?index={index}&rows={rows}&cols={cols}"] = (
                    lambda i=index, r=rows, c=cols: payloads.pivot_payload(
                        service, i, r, c))
        return queries

    def setup(self):
        table, schema = random_final_table(
            self.p["rows"], 60, sa_attributes=SA,
            ca_attributes={"r": 5, "s": 4}, multi_valued_ca={"mv": 4},
            seed=self.ctx.seed, skew=0.5,
        )
        cube = SegregationDataCubeBuilder(
            min_population=self.p["min_population"],
            min_minority=self.p["min_minority"],
            max_sa_items=2, max_ca_items=3,
        ).build(table, schema)
        self.snapshot = self.ctx.workdir / "snapshot"
        dump_snapshot(cube, self.snapshot)
        reference = open_service(self.snapshot)
        universe = self._universe(reference)
        # Scrambled Zipf, as YCSB draws requests: popularity ranks are a
        # seeded shuffle of every query, and each request draws a rank
        # with weight 1 / rank ** ZIPF_S.  The stream is HOT_PHASES equal
        # phases, each with its own shuffle: the analyst's focus moves.
        # The client cycles the stream.
        rng = np.random.default_rng(self.ctx.seed)
        queries = sorted(universe)
        weights = 1.0 / np.arange(1, len(queries) + 1) ** ZIPF_S
        self.stream = []
        for _ in range(HOT_PHASES):
            ranked = rng.permutation(len(queries))
            draws = rng.choice(len(queries), p=weights / weights.sum(),
                               size=self.p["stream"] // HOT_PHASES)
            self.stream += [queries[ranked[d]] for d in draws]
        self.expected = {
            q: payloads.dumps(universe[q]()) for q in set(self.stream)
        }
        self.top_body = payloads.dumps(
            payloads.top_payload(reference, "D", 10))
        self.counts["cube.n_cells"] = len(cube)
        self.store_bytes = snapshot_disk_bytes(self.snapshot)
        self.app = make_app(self.ctx.serving(open_service(self.snapshot)))

    def _first_answer(self, index: int) -> bool:
        gc.collect()   # a restarted server starts from a clean heap
        with self.ctx.op(index, "restart") as sample:
            start = time.perf_counter()
            app = make_app(CachedCubeService(open_service(self.snapshot)))
            status, _, body = wsgi_get(app, TOP_QUERY)
            elapsed = time.perf_counter() - start
        self.first_ms.append(_ms(elapsed) * sample.scale)
        return status == 200 and body == self.top_body

    def _client(self, counter, seconds: float,
                samples: "list[tuple[float, bool]]") -> float:
        """The closed-loop client for ``seconds``: each request is sent
        once the last is answered.  Returns the wall time taken."""
        ctx = self.ctx
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            index = next(counter)
            query = self.stream[index % len(self.stream)]
            with ctx.op(index, query, calibrated=False):
                sent = time.perf_counter()
                status, _, body = ctx.get(self.app, query)
                elapsed = time.perf_counter() - sent
            samples.append((elapsed,
                            status == 200 and body == self.expected[query]))
        return time.perf_counter() - start

    def measure(self, seconds):
        ctx = self.ctx
        counter = itertools.count()
        samples: "list[tuple[float, bool]]" = []
        wall = 0.0
        stretches = self.p["stretches"]
        every = stretches // self.p["first_reps"]
        first = len(ctx.references) - 1
        for stretch in range(stretches):
            # Restart-to-answer between stretches of the loop, so it
            # samples the same machine conditions as the requests.  A
            # traced run measures only the loop: the store stays out of
            # its per-layer figures.
            if ctx.tracer is None and stretch % every == 0:
                ctx.attempt(lambda: self._first_answer(stretch // every))
            wall += self._client(counter, seconds / stretches, samples)
            ctx.rescale()
        # A stretch serves a different slice of the stream each time, so
        # its requests are not paired with the kernels next to it: the
        # whole loop is scaled by the median kernel time of the run.
        scale = ctx.kernel.reference_s / statistics.median(
            ctx.references[first:])
        self.wait_ms = [_ms(elapsed) * scale for elapsed, _ in samples]
        bad = sum(1 for _, ok in samples if not ok)
        ctx.record(True, len(samples) - bad)
        ctx.record(False, bad)
        self.ops_per_s = len(samples) / (wall * scale)
        stats = self.app.service.cache.stats()
        self.counts.update({
            "serve.cache_hit_ratio":
                stats["hits"] / max(1, stats["hits"] + stats["misses"]),
            "serve.cache_evictions": stats["evictions"],
        })
        self.named = {
            "query_p50_ms": (statistics.median(self.wait_ms), "ms"),
            "query_p90_ms": (percentile(self.wait_ms, 90), "ms"),
            "query_p99_ms": (percentile(self.wait_ms, 99), "ms"),
            "query_qps": (self.ops_per_s, "req/s"),
            "distinct_queries": (len(self.expected), "count"),
            "cache_hit_ratio": (self.counts["serve.cache_hit_ratio"], "ratio"),
        }


# ----------------------------------------------------------------------
# director_graph: the paper's director-graph pipeline, dumped and served
# ----------------------------------------------------------------------


class DirectorGraph(Workload):
    name = "director_graph"
    #: The pipeline is numpy over arrays far larger than cache: memory
    #: bound, so the interpreter part of the kernel does not track it.
    reference = ("sort", "gather")
    params = {
        "full": {"left": 500_000, "right": 20_000, "min_ops": 10},
        "tiny": {"left": 3_000, "right": 300, "min_ops": 2},
    }
    THRESHOLDS = [2.0, 3.0, 4.0, 5.0]
    CLUSTERS_QUERY = "/graph/clusters?k=10"
    #: Fresh-app restarts after each pipeline run, outside graph_s.
    RESTARTS = 4

    def setup(self):
        self.bipartite, self.attributes = random_bipartite_world(
            self.p["left"], self.p["right"], seed=self.ctx.seed)
        # The app needs a cube mounted next to the graph: a small one.
        table, schema = random_final_table(2_000, 20, seed=self.ctx.seed)
        self.cube_service = CachedCubeService(open_service(
            SegregationDataCubeBuilder().build(table, schema)))

    def _one(self, index: int) -> bool:
        ctx = self.ctx
        path = ctx.workdir / f"graph-{index}"
        gc.collect()   # a pipeline run starts in a fresh process
        with ctx.op(index, "graph") as sample:
            start = time.perf_counter()
            with ctx.span("graph.project"):
                projection = project_onto_groups(
                    self.bipartite, max_left_degree=50)
            with ctx.span("graph.components"):
                connected_components(projection.graph)
            with ctx.span("graph.threshold"):
                threshold_profile(projection.graph, self.THRESHOLDS)
            with ctx.span("graph.stoc"):
                clustering = stoc_clustering(
                    projection.graph, self.attributes, tau=0.5, seed=7)
            artifact = GraphArtifact.from_result(projection, clustering)
            with ctx.span("store.graph_dump"):
                dump_graph_snapshot(artifact, path)
            dumped = time.perf_counter()
            with ctx.span("store.graph_open"):
                graph_service = GraphService.open(path)
            if ctx.tracer is not None:
                graph_service = TimedProxy(graph_service, ctx.tracer,
                                           GRAPH_SPANS)
            app = make_app(self.cube_service, graph_source=graph_service)
            status, _, body = ctx.get(app, self.CLUSTERS_QUERY)
            answered = time.perf_counter()
        self.wait_ms.append(_ms(answered - start) * sample.scale)
        self.first_ms.append(_ms(answered - dumped) * sample.scale)
        # A first answer takes ~2 ms, so one per pipeline is a thin
        # sample: restart a few more times over the same snapshot, right
        # after the kernel that scaled the pipeline.
        restarts_ok = True
        for _ in range(self.RESTARTS):
            begin = time.perf_counter()
            restarted = make_app(self.cube_service,
                                 graph_source=GraphService.open(path))
            again = wsgi_get(restarted, self.CLUSTERS_QUERY)
            self.first_ms.append(
                _ms(time.perf_counter() - begin) * sample.scale)
            restarts_ok &= again[0] == 200 and again[2] == body
        self.store_bytes = _dir_bytes(path)
        self.counts["graph.n_edges"] = projection.graph.n_edges
        self.counts["graph.n_clusters"] = clustering.n_clusters
        reopened = validate_graph_snapshot(path)
        expected = payloads.dumps(payloads.graph_clusters_payload(
            GraphService(reopened), k=10))
        ok = (status == 200 and body == expected and restarts_ok
              and np.array_equal(reopened.array("labels"), clustering.labels))
        shutil.rmtree(path)
        return ok

    def measure(self, seconds):
        for index in self.ctx.indices(seconds, self.p["min_ops"]):
            self.ctx.attempt(lambda: self._one(index))
        self.ops_per_s = self._rate()
        self.named = {
            "graph_s": (statistics.median(self.wait_ms) / 1e3, "s"),
            "first_answer_ms": (statistics.median(self.first_ms), "ms"),
            "store_bytes": (self.store_bytes, "bytes"),
        }


def percentile(samples: "list[float]", p: int) -> float:
    """The ``p``-th percentile, linearly interpolated between samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


WORKLOADS = {w.name: w for w in (ColdBuild, TimelinePublish, QueryMix,
                                 DirectorGraph)}
