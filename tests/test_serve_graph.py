"""Tests of the /graph/* serving tier over graph snapshots."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import CubeConfig
from repro.core.pipeline import SCubePipeline
from repro.core.scenarios import run_director_graph
from repro.data.italy import ItalyConfig, generate_italy
from repro.data.synthetic import random_bipartite_world
from repro.graph.bipartite import project_onto_groups, project_onto_individuals
from repro.graph.components import connected_components
from repro.serve import payloads
from repro.serve.graph import GraphService
from repro.serve.http import make_app, wsgi_get
from repro.store import dump_snapshot
from repro.store.graph import (
    GraphArtifact,
    dump_graph_snapshot,
    validate_graph_snapshot,
)


@pytest.fixture(scope="module")
def world():
    bipartite, _ = random_bipartite_world(3000, 150, seed=23)
    projection = project_onto_groups(bipartite, max_left_degree=30)
    clustering = connected_components(projection.graph)
    return projection, clustering


@pytest.fixture(scope="module")
def graph_dir(world, tmp_path_factory):
    projection, clustering = world
    return dump_graph_snapshot(
        GraphArtifact.from_result(projection, clustering),
        tmp_path_factory.mktemp("serve_graph") / "snap",
    )


@pytest.fixture(scope="module")
def cube_dir(tmp_path_factory, italy_small):
    from repro.core.scenarios import run_tabular
    from repro.data.italy import italy_tabular_individuals

    seats, schema = italy_tabular_individuals(italy_small)
    result = run_tabular(seats, schema, "sector",
                         CubeConfig(min_population=10, min_minority=3,
                                    max_sa_items=2, max_ca_items=1))
    return dump_snapshot(result.cube,
                         tmp_path_factory.mktemp("serve_cube") / "snap")


@pytest.fixture(scope="module")
def app(cube_dir, graph_dir):
    return make_app(cube_dir, graph_source=graph_dir)


class TestGraphService:
    def test_degrees_match_graph(self, world, graph_dir):
        projection, _ = world
        service = GraphService.open(graph_dir)
        indptr = projection.graph.csr()[0]
        assert service.degrees().tolist() == np.diff(indptr).tolist()
        assert np.allclose(service.weighted_degrees(),
                           projection.graph.weighted_degrees())

    def test_cluster_sizes_match_clustering(self, world, graph_dir):
        _, clustering = world
        service = GraphService.open(graph_dir)
        assert service.cluster_sizes().tolist() \
            == clustering.sizes().tolist()

    def test_clusters_ranked_by_size(self, graph_dir):
        service = GraphService.open(graph_dir)
        top = service.clusters(k=5)
        sizes = [entry["size"] for entry in top]
        assert sizes == sorted(sizes, reverse=True)
        giant = service.clusters(k=1)[0]
        assert giant["size"] == int(service.cluster_sizes().max())

    def test_min_size_filters(self, graph_dir):
        service = GraphService.open(graph_dir)
        all_of_them = service.clusters(k=10**6)
        big = service.clusters(k=10**6, min_size=3)
        assert len(big) <= len(all_of_them)
        assert all(entry["size"] >= 3 for entry in big)

    def test_node_out_of_range(self, graph_dir):
        service = GraphService.open(graph_dir)
        with pytest.raises(ValueError, match="out of range"):
            service.node(10**9)
        with pytest.raises(ValueError, match="out of range"):
            service.node(-1)

    def test_top_degree_sorted(self, graph_dir):
        service = GraphService.open(graph_dir)
        top = service.top_degree(k=5)
        degrees = [entry["degree"] for entry in top]
        assert degrees == sorted(degrees, reverse=True)


class TestGraphEndpoints:
    def test_info_byte_parity(self, app):
        status, headers, body = wsgi_get(app, "/graph/info")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body == payloads.dumps(
            payloads.graph_info_payload(app.graph_service)
        )

    def test_info_fields(self, app, world):
        projection, clustering = world
        _, _, body = wsgi_get(app, "/graph/info")
        info = json.loads(body)
        assert info["n_nodes"] == projection.graph.n_nodes
        assert info["n_edges"] == projection.graph.n_edges
        assert info["n_clusters"] == clustering.n_clusters
        assert info["method"] == "connected-components"

    def test_clusters_byte_parity(self, app):
        status, _, body = wsgi_get(app, "/graph/clusters?k=4&min_size=2")
        assert status == 200
        assert body == payloads.dumps(payloads.graph_clusters_payload(
            app.graph_service, k=4, min_size=2
        ))

    def test_degree_single_node_byte_parity(self, app):
        status, _, body = wsgi_get(app, "/graph/degree?node=3")
        assert status == 200
        assert body == payloads.dumps(payloads.graph_degree_payload(
            app.graph_service, node=3
        ))

    def test_degree_topk_byte_parity(self, app):
        status, _, body = wsgi_get(app, "/graph/degree?k=7")
        assert status == 200
        assert body == payloads.dumps(payloads.graph_degree_payload(
            app.graph_service, k=7
        ))

    def test_cube_endpoints_still_serve(self, app):
        status, _, body = wsgi_get(app, "/info")
        assert status == 200
        assert b"cells" in body

    def test_errors(self, app):
        status, _, body = wsgi_get(app, "/graph/degree?node=abc")
        assert status == 400 and b"error" in body
        status, _, body = wsgi_get(app, "/graph/degree?node=99999999")
        assert status == 400 and b"out of range" in body
        status, _, body = wsgi_get(app, "/graph/clusters?k=oops")
        assert status == 400 and b"error" in body
        status, _, body = wsgi_get(app, "/graph/nope")
        assert status == 404

    def test_post_rejected(self, app):
        status, headers, _ = wsgi_get(app, "/graph/info", method="POST")
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"

    def test_unmounted_graph_404(self, cube_dir):
        bare = make_app(cube_dir)
        for path in ("/graph/info", "/graph/clusters", "/graph/degree"):
            status, _, body = wsgi_get(bare, path)
            assert status == 404
            assert b"no graph snapshot mounted" in body


class TestScenarioEmission:
    """A scenario's projected graph and clustering, dumped by the caller,
    open and serve next to the scenario's cube."""

    def test_director_graph_emits_snapshot(self, italy_small, tmp_path):
        cfg = CubeConfig(min_population=10, min_minority=3,
                         max_sa_items=2, max_ca_items=1)
        result = run_director_graph(italy_small, cube_config=cfg)
        projection = project_onto_individuals(italy_small.bipartite())
        clustering = connected_components(projection.graph)
        snapshot = validate_graph_snapshot(dump_graph_snapshot(
            GraphArtifact.from_result(projection, clustering),
            tmp_path / "g2",
        ))
        assert snapshot.n_nodes == italy_small.n_individuals
        assert snapshot.manifest.n_clusters == result.n_units
        assert snapshot.manifest.provenance == {}

    def test_bipartite_emits_snapshot_and_serves(self, tmp_path):
        dataset = generate_italy(ItalyConfig(n_companies=250, seed=13))
        result = SCubePipeline().run(dataset)
        graph_snapshot = dump_graph_snapshot(
            GraphArtifact.from_result(result.projection, result.clustering),
            tmp_path / "g3",
        )
        snapshot = validate_graph_snapshot(graph_snapshot)
        assert snapshot.n_nodes == dataset.n_groups
        cube_dir = dump_snapshot(result.cube, tmp_path / "cube")
        app = make_app(cube_dir, graph_source=graph_snapshot)
        status, _, body = wsgi_get(app, "/graph/info")
        assert status == 200
        assert json.loads(body)["n_clusters"] == result.n_units

    def test_no_path_no_snapshot(self, italy_small, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = CubeConfig(min_population=10, min_minority=3,
                         max_sa_items=2, max_ca_items=1)
        result = run_director_graph(italy_small, cube_config=cfg)
        assert set(result.timings) == {
            "graph_builder", "graph_clustering", "table_builder",
            "cube_builder",
        }
        assert not any(tmp_path.iterdir())
