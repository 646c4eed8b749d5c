"""Graph engine self-check: new-vs-legacy parity, CI-runnable.

Run anywhere::

    python -m repro.graph.selfcheck [--scale N]

Builds two worlds — a synthetic Italian boards dataset and a power-law
:func:`~repro.data.synthetic.random_bipartite_world` (``--scale``
individuals) — and fails loudly (exit 1) unless the PR-8 array engine
reproduces the seed-era set/BFS implementations preserved in
:mod:`repro.graph.legacy` **exactly**:

* bipartite projections (both sides, with and without the hub guard):
  identical edge arrays, identical integer weights, identical
  isolated/skipped-hub lists;
* connected components, threshold components and the threshold profile:
  identical labels and rows;
* SToC with a fixed RNG seed: identical labels, cluster count, method;
* a graph snapshot round-trip: dump → ``validate_graph_snapshot`` →
  reopen → identical arrays, and the mounted ``/graph/*`` endpoints
  answer with bodies byte-identical to the in-process payload
  functions.

Everything runs in-process on seeded data, so a pass is deterministic
evidence, not a flaky smoke.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.data.italy import ItalyConfig, generate_italy
from repro.data.synthetic import random_bipartite_world
from repro.graph import legacy
from repro.graph.bipartite import (
    BipartiteGraph,
    project_onto_groups,
    project_onto_individuals,
)
from repro.graph.components import connected_components
from repro.graph.stoc import stoc_clustering
from repro.graph.threshold import threshold_components, threshold_profile


class _Checker:
    def __init__(self):
        self.failures = 0

    def check(self, label: str, condition: bool, detail: str = "") -> None:
        if not condition:
            self.failures += 1
            print(f"PARITY FAILURE: {label} {detail}".rstrip(),
                  file=sys.stderr)


def _check_projection(
    c: _Checker,
    world: str,
    bipartite: BipartiteGraph,
    side: str,
    min_shared: int,
    max_degree: "int | None",
) -> None:
    if side == "groups":
        reference = legacy.project_onto_groups_legacy(
            bipartite, min_shared=min_shared, max_left_degree=max_degree
        )
        project = project_onto_groups
        kwargs = {"max_left_degree": max_degree}
    else:
        reference = legacy.project_onto_individuals_legacy(
            bipartite, min_shared=min_shared, max_right_degree=max_degree
        )
        project = project_onto_individuals
        kwargs = {"max_right_degree": max_degree}
    ru, rv, rw = reference.graph.edge_arrays()
    label = f"{world} {side} min_shared={min_shared} hub={max_degree}"
    result = project(bipartite, min_shared=min_shared, **kwargs)
    u, v, w = result.graph.edge_arrays()
    c.check(f"{label} edges",
            np.array_equal(u, ru) and np.array_equal(v, rv),
            f"({len(u)} vs {len(ru)} edges)")
    c.check(f"{label} weights", np.array_equal(w, rw))
    c.check(f"{label} isolated",
            list(result.isolated) == list(reference.isolated))
    c.check(f"{label} skipped_hubs",
            list(result.skipped_hubs) == list(reference.skipped_hubs))


def _check_clustering(c: _Checker, world: str, graph, attributes) -> None:
    new = connected_components(graph)
    old = legacy.connected_components_legacy(graph)
    c.check(f"{world} components labels",
            np.array_equal(new.labels, old.labels))
    c.check(f"{world} components count", new.n_clusters == old.n_clusters,
            f"({new.n_clusters} vs {old.n_clusters})")

    thresholds = [2.0, 3.0, 5.0]
    for t in thresholds:
        tn = threshold_components(graph, t)
        to = legacy.threshold_components_legacy(graph, t)
        c.check(f"{world} threshold({t}) labels",
                np.array_equal(tn.labels, to.labels))
    c.check(
        f"{world} threshold profile",
        threshold_profile(graph, thresholds)
        == legacy.threshold_profile_legacy(graph, thresholds),
    )

    for tau in (0.3, 0.6):
        sn = stoc_clustering(graph, attributes, tau=tau, seed=7)
        so = legacy.stoc_clustering_legacy(graph, attributes, tau=tau,
                                           seed=7)
        c.check(f"{world} stoc(tau={tau}) labels",
                np.array_equal(sn.labels, so.labels))
        c.check(f"{world} stoc(tau={tau}) count",
                sn.n_clusters == so.n_clusters,
                f"({sn.n_clusters} vs {so.n_clusters})")
        c.check(f"{world} stoc(tau={tau}) method", sn.method == so.method)


def _check_snapshot(c: _Checker, directory: Path, projection,
                    clustering) -> None:
    from repro.serve import payloads
    from repro.serve.graph import GraphService
    from repro.serve.http import make_app, wsgi_get
    from repro.store.graph import (
        GraphArtifact,
        dump_graph_snapshot,
        validate_graph_snapshot,
    )

    artifact = GraphArtifact.from_result(
        projection, clustering, provenance={"selfcheck": True}
    )
    dump_graph_snapshot(artifact, directory)
    snapshot = validate_graph_snapshot(directory)
    u, v, w = projection.graph.edge_arrays()
    su, sv, sw = snapshot.edge_arrays()
    c.check("snapshot edges round-trip",
            np.array_equal(su, u) and np.array_equal(sv, v)
            and np.array_equal(sw, w))
    c.check("snapshot labels round-trip",
            np.array_equal(snapshot.array("labels"), clustering.labels))
    c.check("snapshot counts",
            snapshot.n_nodes == projection.graph.n_nodes
            and snapshot.n_edges == len(u))

    service = GraphService(snapshot)
    app = make_app(service_stub(), graph_source=service)
    for path, want in (
        ("/graph/info",
         payloads.dumps(payloads.graph_info_payload(service))),
        ("/graph/clusters?k=5",
         payloads.dumps(payloads.graph_clusters_payload(service, k=5))),
        ("/graph/degree?k=5",
         payloads.dumps(payloads.graph_degree_payload(service, k=5))),
        ("/graph/degree?node=0",
         payloads.dumps(payloads.graph_degree_payload(service, node=0))),
    ):
        status, headers, body = wsgi_get(app, path)
        c.check(f"{path} status", status == 200, f"(got {status})")
        c.check(f"{path} byte parity", body == want,
                f"({len(body)} vs {len(want)} bytes)")


def service_stub():
    """A minimal cube-service stand-in so make_app needs no cube."""
    class _Stub:
        def info(self):
            return {}

        def top(self, **kwargs):
            return []

    return _Stub()


def run(scale: int) -> int:
    c = _Checker()

    italy = generate_italy(ItalyConfig(n_companies=400, seed=13))
    boards = italy.bipartite(None)
    synth, synth_attrs = random_bipartite_world(
        scale, max(scale // 25, 10), seed=42
    )

    for world, bipartite in (("italy", boards), ("synthetic", synth)):
        for side in ("groups", "individuals"):
            for min_shared, max_degree in (
                (1, None), (2, None), (1, 20),
            ):
                _check_projection(
                    c, world, bipartite, side, min_shared, max_degree
                )

    from repro.core.pipeline import group_attribute_table

    italy_proj = project_onto_groups(boards, max_left_degree=30)
    _check_clustering(c, "italy", italy_proj.graph,
                      group_attribute_table(italy))
    synth_proj = project_onto_groups(synth, max_left_degree=30)
    _check_clustering(c, "synthetic", synth_proj.graph, synth_attrs)

    clustering = connected_components(synth_proj.graph)
    with tempfile.TemporaryDirectory() as tmp:
        _check_snapshot(c, Path(tmp) / "graph_snap", synth_proj, clustering)

    if c.failures:
        return 1
    print(
        "graph selfcheck OK: projections, components, threshold sweep, "
        "seeded SToC and snapshot round-trip all exactly match the "
        f"legacy implementations (italy: {boards.n_left}x{boards.n_right}, "
        f"synthetic: {synth.n_left}x{synth.n_right})"
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.graph.selfcheck",
        description="Assert new-vs-legacy graph engine parity.",
    )
    parser.add_argument(
        "--scale", type=int, default=5000,
        help="synthetic world size (individuals; groups = scale/25)",
    )
    args = parser.parse_args(argv)
    return run(args.scale)


if __name__ == "__main__":
    sys.exit(main())
