"""Tests of graph snapshots: round-trip, laziness, corruption surface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.synthetic import random_bipartite_world
from repro.errors import SnapshotError
from repro.graph.bipartite import project_onto_groups
from repro.graph.components import connected_components
from repro.store.graph import (
    GRAPH_MANIFEST_NAME,
    GraphArtifact,
    GraphManifest,
    dump_graph_snapshot,
    graph_digest,
    open_graph_snapshot,
    validate_graph_snapshot,
)


@pytest.fixture(scope="module")
def artifact():
    bipartite, _ = random_bipartite_world(2000, 120, seed=17)
    projection = project_onto_groups(bipartite, max_left_degree=30)
    clustering = connected_components(projection.graph)
    return GraphArtifact.from_result(projection, clustering)


@pytest.fixture()
def snapshot_dir(artifact, tmp_path):
    return dump_graph_snapshot(artifact, tmp_path / "graph_snap")


class TestRoundTrip:
    def test_arrays_identical(self, artifact, snapshot_dir):
        snapshot = open_graph_snapshot(snapshot_dir)
        u, v, w = artifact.graph.edge_arrays()
        su, sv, sw = snapshot.edge_arrays()
        assert np.array_equal(su, u)
        assert np.array_equal(sv, v)
        assert np.array_equal(sw, w)
        assert np.array_equal(
            snapshot.array("labels"), artifact.clustering.labels
        )
        assert snapshot.array("isolated").tolist() == artifact.isolated
        assert snapshot.array("skipped_hubs").tolist() \
            == artifact.skipped_hubs

    def test_graph_and_clustering_reconstruct(self, artifact, snapshot_dir):
        snapshot = open_graph_snapshot(snapshot_dir)
        graph = snapshot.graph()
        assert graph.n_nodes == artifact.graph.n_nodes
        assert graph.n_edges == artifact.graph.n_edges
        clustering = snapshot.clustering()
        assert clustering.n_clusters == artifact.clustering.n_clusters
        assert clustering.method == artifact.clustering.method
        # Reclustering the reopened graph reproduces the stored labels.
        again = connected_components(graph)
        assert np.array_equal(again.labels, clustering.labels)

    def test_mmap_and_memory_agree(self, snapshot_dir):
        lazy = open_graph_snapshot(snapshot_dir, mmap=True)
        eager = open_graph_snapshot(snapshot_dir, mmap=False)
        for name in ("edges_u", "edges_v", "edges_w", "labels"):
            assert np.array_equal(lazy.array(name), eager.array(name))
        assert isinstance(lazy.array("edges_u"), np.memmap)
        assert not isinstance(eager.array("edges_u"), np.memmap)

    def test_validate_passes_and_info(self, artifact, snapshot_dir):
        snapshot = validate_graph_snapshot(snapshot_dir)
        info = snapshot.info()
        assert info["n_nodes"] == artifact.graph.n_nodes
        assert info["n_edges"] == artifact.graph.n_edges
        assert info["method"] == "connected-components"
        assert info["provenance"] == {}
        u, v, w = artifact.graph.edge_arrays()
        assert info["total_weight"] == pytest.approx(float(w.sum()))

    def test_redump_is_idempotent(self, artifact, snapshot_dir):
        first = GraphManifest.read(snapshot_dir).content_digest
        dump_graph_snapshot(artifact, snapshot_dir)
        assert GraphManifest.read(snapshot_dir).content_digest == first
        validate_graph_snapshot(snapshot_dir)

    def test_orphan_arrays_pruned(self, artifact, snapshot_dir):
        stray = snapshot_dir / "stale_column.npy"
        np.save(stray, np.arange(3))
        dump_graph_snapshot(artifact, snapshot_dir)
        assert not stray.exists()

    def test_empty_graph_round_trips(self, tmp_path):
        bipartite, _ = random_bipartite_world(5, 3, seed=1)
        # Every director of two or more boards is a hub: no pair survives.
        projection = project_onto_groups(bipartite, max_left_degree=1)
        clustering = connected_components(projection.graph)
        path = dump_graph_snapshot(
            GraphArtifact.from_result(projection, clustering),
            tmp_path / "empty",
        )
        snapshot = validate_graph_snapshot(path)
        assert snapshot.n_edges == 0
        assert snapshot.graph().n_edges == 0


#: Opens a graph snapshot memory-mapped, waits while the test rewrites
#: its directory, then compares every array with a reference copy.
_GRAPH_READER = """
import sys
import numpy as np
from repro.store.graph import open_graph_snapshot

live = open_graph_snapshot(sys.argv[1], mmap=True)
print("ready", flush=True)
sys.stdin.readline()
reference = open_graph_snapshot(sys.argv[2], mmap=False)
names = ("edges_u", "edges_v", "edges_w", "labels", "isolated",
         "skipped_hubs")
sys.exit(0 if all(np.array_equal(live.array(n), reference.array(n))
                  for n in names) else 1)
"""


def test_mmap_reader_survives_smaller_redump(artifact, tmp_path,
                                             mmap_reader):
    live = dump_graph_snapshot(artifact, tmp_path / "live")
    reference = dump_graph_snapshot(artifact, tmp_path / "reference")
    finish = mmap_reader(_GRAPH_READER, live, reference)
    bipartite, _ = random_bipartite_world(5, 3, seed=1)
    projection = project_onto_groups(bipartite)
    dump_graph_snapshot(
        GraphArtifact.from_result(
            projection, connected_components(projection.graph)
        ),
        live,
    )
    assert finish() == 0
    assert open_graph_snapshot(live).n_nodes == 3


def test_interrupted_overwrite_keeps_old_or_new_snapshot(
    artifact, tmp_path, crash_at
):
    """A crash at any file call of a re-dump: with a manifest the
    directory validates as the old or the new graph, without one it is
    rejected, and dumping again gives the files of an uninterrupted
    dump."""
    bipartite, _ = random_bipartite_world(300, 40, seed=5)
    projection = project_onto_groups(bipartite)
    new = GraphArtifact.from_result(
        projection, connected_components(projection.graph)
    )
    whole = dump_graph_snapshot(artifact, tmp_path / "whole")
    digests = {GraphManifest.read(whole).content_digest}
    calls = crash_at(lambda: dump_graph_snapshot(new, whole))
    digests.add(GraphManifest.read(whole).content_digest)
    for crash in range(len(calls)):
        path = dump_graph_snapshot(artifact, tmp_path / f"crash-{crash}")
        crash_at(lambda: dump_graph_snapshot(new, path), fail=crash)
        if (path / GRAPH_MANIFEST_NAME).is_file():
            snapshot = validate_graph_snapshot(path)
            assert snapshot.manifest.content_digest in digests, crash
        else:
            with pytest.raises(SnapshotError, match="no graph snapshot"):
                open_graph_snapshot(path)
        assert not list(path.glob("*.tmp"))
        dump_graph_snapshot(new, path)
        assert sorted(f.name for f in path.iterdir()) == sorted(
            f.name for f in whole.iterdir()
        )
        validate_graph_snapshot(path)


class TestCorruption:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotError, match="no graph snapshot"):
            open_graph_snapshot(tmp_path)

    def test_manifest_not_json(self, snapshot_dir):
        (snapshot_dir / GRAPH_MANIFEST_NAME).write_text("{nope")
        with pytest.raises(SnapshotError, match="not valid JSON"):
            open_graph_snapshot(snapshot_dir)

    def test_wrong_format_version(self, snapshot_dir):
        path = snapshot_dir / GRAPH_MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="version"):
            open_graph_snapshot(snapshot_dir)

    def test_missing_required_field(self, snapshot_dir):
        path = snapshot_dir / GRAPH_MANIFEST_NAME
        payload = json.loads(path.read_text())
        del payload["n_edges"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="missing required"):
            open_graph_snapshot(snapshot_dir)

    def test_missing_array_file(self, snapshot_dir):
        (snapshot_dir / "edges_w.npy").unlink()
        with pytest.raises(SnapshotError, match="missing file"):
            open_graph_snapshot(snapshot_dir)

    def test_truncated_array_file(self, snapshot_dir):
        file = snapshot_dir / "labels.npy"
        file.write_bytes(file.read_bytes()[:40])
        with pytest.raises(SnapshotError):
            open_graph_snapshot(snapshot_dir)

    def test_empty_array_file(self, snapshot_dir):
        (snapshot_dir / "labels.npy").write_bytes(b"")
        for mmap in (True, False):
            with pytest.raises(SnapshotError, match="unreadable"):
                open_graph_snapshot(snapshot_dir, mmap=mmap)

    def test_wrong_dtype_on_disk(self, snapshot_dir):
        labels = np.load(snapshot_dir / "labels.npy")
        np.save(snapshot_dir / "labels.npy", labels.astype(np.float64))
        with pytest.raises(SnapshotError, match="dtype"):
            open_graph_snapshot(snapshot_dir)

    def test_length_mismatch(self, snapshot_dir):
        path = snapshot_dir / GRAPH_MANIFEST_NAME
        payload = json.loads(path.read_text())
        payload["n_edges"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="n_edges"):
            open_graph_snapshot(snapshot_dir)

    def test_tampered_weights_fail_digest(self, snapshot_dir):
        w = np.load(snapshot_dir / "edges_w.npy")
        w[0] += 1.0
        np.save(snapshot_dir / "edges_w.npy", w)
        open_graph_snapshot(snapshot_dir)   # structure still fine
        with pytest.raises(SnapshotError, match="digest mismatch"):
            validate_graph_snapshot(snapshot_dir)

    def test_unordered_edges_rejected(self, snapshot_dir):
        u = np.load(snapshot_dir / "edges_u.npy")
        v = np.load(snapshot_dir / "edges_v.npy")
        u[0], v[0] = v[0], u[0]
        np.save(snapshot_dir / "edges_u.npy", u)
        np.save(snapshot_dir / "edges_v.npy", v)
        with pytest.raises(SnapshotError, match="u < v"):
            validate_graph_snapshot(snapshot_dir)

    def test_label_out_of_range_rejected(self, snapshot_dir):
        labels = np.load(snapshot_dir / "labels.npy")
        manifest = GraphManifest.read(snapshot_dir)
        labels[0] = manifest.n_clusters
        np.save(snapshot_dir / "labels.npy", labels)
        with pytest.raises(SnapshotError, match="labels out of range"):
            validate_graph_snapshot(snapshot_dir)

    def test_digest_helper_is_content_addressed(self, artifact):
        u, v, w = artifact.graph.edge_arrays()
        arrays = {
            "edges_u": u, "edges_v": v, "edges_w": w,
            "labels": artifact.clustering.labels,
            "isolated": np.asarray(artifact.isolated, dtype=np.int64),
            "skipped_hubs": np.asarray(artifact.skipped_hubs,
                                       dtype=np.int64),
        }
        assert graph_digest(arrays) == graph_digest(dict(arrays))
        tampered = dict(arrays)
        tampered["labels"] = np.array(arrays["labels"], copy=True)
        tampered["labels"][0] += 1
        assert graph_digest(tampered) != graph_digest(arrays)

    def test_label_count_mismatch_rejected_at_build(self):
        bipartite, _ = random_bipartite_world(100, 20, seed=3)
        projection = project_onto_groups(bipartite)
        clustering = connected_components(projection.graph)
        short = type(clustering)(
            clustering.labels[:-1], clustering.n_clusters, clustering.method
        )
        with pytest.raises(SnapshotError, match="labels"):
            GraphArtifact.from_result(projection, short)
