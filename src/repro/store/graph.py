"""Durable graph snapshots: a projection and its clustering as an
addressable artifact.

A projected graph and its clustering get the same durability contract
as cube snapshots: a self-describing directory of one data file plus a
JSON manifest, crash-safe to write, memory-mappable to reopen, and
loudly invalid when corrupted.  The manifest's ``provenance`` is written
empty and read back as stored.

Layout::

    graph_snapshot/
      graph_manifest.json   version, counts, method, provenance, digest,
                            data-file size, {"offset", "dtype", "shape"}
                            per array
      data.bin              every array, 64-byte aligned:
        edges_u             int64   (n_edges,)   edge endpoints, u < v
        edges_v             int64   (n_edges,)   sorted by (u, v)
        edges_w             float64 (n_edges,)   shared-individual weights
        labels              int64   (n_nodes,)   clustering unit per node
        isolated            int64               nodes with no projected edge
        skipped_hubs        int64               sources the hub guard skipped

The write goes through the store's file layer
(:func:`~repro.store.manifest.write_directory`, the protocol cube
snapshots use): the stale manifest is unlinked *first*, the data file
fsynced before the new manifest is written *last*, so a directory with
a readable manifest always describes a complete snapshot.
:func:`open_graph_snapshot` checks structure through the same manifest
preamble and checked loader as cube snapshots (version, digest,
required arrays, dtypes, offsets, the data file's size), plus count
consistency; :func:`validate_graph_snapshot` additionally checks
content (endpoint ranges, ``u < v`` ordering, positive weights, label
range, sha256 digest).  Every failure raises
:class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.errors import SnapshotError
from repro.graph.bipartite import ProjectionResult
from repro.graph.components import Clustering
from repro.graph.graph import Graph
from repro.store.manifest import (
    ArrayInfo,
    load_arrays,
    plan_directory,
    read_manifest,
    render_manifest,
    write_directory,
)

#: Current graph snapshot format; readers refuse other versions.
GRAPH_FORMAT_VERSION = 2

#: Distinct from the cube's ``manifest.json`` so a graph snapshot can
#: never be mistaken for (or half-open as) a cube snapshot.
GRAPH_MANIFEST_NAME = "graph_manifest.json"

#: Required arrays with their dtypes; shapes are manifest-validated.
_GRAPH_ARRAYS = {
    "edges_u": "int64",
    "edges_v": "int64",
    "edges_w": "float64",
    "labels": "int64",
    "isolated": "int64",
    "skipped_hubs": "int64",
}


@dataclass
class GraphManifest:
    """Everything a reader needs to reopen and validate a graph snapshot."""

    format_version: int
    created_at: str
    n_nodes: int
    n_edges: int
    n_clusters: int
    method: str
    provenance: "dict[str, object]"
    content_digest: str
    arrays: "dict[str, ArrayInfo]" = field(default_factory=dict)
    #: Byte size of the directory's data file.
    data_bytes: int = 0

    def to_json(self) -> str:
        return render_manifest(vars(self))

    @classmethod
    def read(cls, directory: "str | Path") -> "GraphManifest":
        payload = read_manifest(
            Path(directory) / GRAPH_MANIFEST_NAME, "graph snapshot",
            GRAPH_FORMAT_VERSION,
            ("created_at", "n_nodes", "n_edges", "n_clusters", "method",
             "provenance"),
        )
        try:
            return cls(
                format_version=GRAPH_FORMAT_VERSION,
                created_at=str(payload["created_at"]),
                n_nodes=int(payload["n_nodes"]),
                n_edges=int(payload["n_edges"]),
                n_clusters=int(payload["n_clusters"]),
                method=str(payload["method"]),
                provenance=dict(payload["provenance"]),
                content_digest=payload["content_digest"],
                arrays=payload["arrays"],
                data_bytes=payload["data_bytes"],
            )
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"graph manifest fields are malformed: {exc}"
            ) from exc


@dataclass
class GraphArtifact:
    """A graph output ready to dump: projection + clustering."""

    graph: Graph
    clustering: Clustering
    isolated: "list[int]"
    skipped_hubs: "list[int]"

    @classmethod
    def from_result(
        cls, projection: ProjectionResult, clustering: Clustering
    ) -> "GraphArtifact":
        """Bundle a GraphBuilder + GraphClustering output pair."""
        if len(clustering.labels) != projection.graph.n_nodes:
            raise SnapshotError(
                "clustering labels do not match the projected graph "
                f"({len(clustering.labels)} labels for "
                f"{projection.graph.n_nodes} nodes)"
            )
        return cls(
            graph=projection.graph,
            clustering=clustering,
            isolated=list(projection.isolated),
            skipped_hubs=list(projection.skipped_hubs),
        )


def graph_digest(arrays: "dict[str, np.ndarray]") -> str:
    """Order-insensitive-to-storage sha256 over the graph's array content."""
    digest = hashlib.sha256()
    for name in sorted(_GRAPH_ARRAYS):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def dump_graph_snapshot(
    artifact: GraphArtifact, path: "str | Path"
) -> Path:
    """Persist a graph artifact to ``path`` (a directory) and return it.

    Crash-safe through the store's dump protocol
    (:func:`~repro.store.manifest.write_directory`): stale manifest
    unlinked first, data file fsynced, new manifest written last.
    """
    u, v, w = artifact.graph.edge_arrays()
    arrays = {
        "edges_u": np.ascontiguousarray(u, dtype=np.int64),
        "edges_v": np.ascontiguousarray(v, dtype=np.int64),
        "edges_w": np.ascontiguousarray(w, dtype=np.float64),
        "labels": np.ascontiguousarray(
            artifact.clustering.labels, dtype=np.int64
        ),
        "isolated": np.asarray(artifact.isolated, dtype=np.int64),
        "skipped_hubs": np.asarray(artifact.skipped_hubs, dtype=np.int64),
    }
    manifest = GraphManifest(
        format_version=GRAPH_FORMAT_VERSION,
        created_at=datetime.now(timezone.utc).isoformat(),
        n_nodes=artifact.graph.n_nodes,
        n_edges=int(len(u)),
        n_clusters=artifact.clustering.n_clusters,
        method=artifact.clustering.method,
        provenance={},
        content_digest=graph_digest(arrays),
    )
    return write_directory(path, plan_directory(
        GRAPH_MANIFEST_NAME, manifest, arrays.items()
    ))


class GraphSnapshot:
    """A reopened graph snapshot: lazy arrays + graph/clustering views."""

    def __init__(
        self,
        path: Path,
        manifest: GraphManifest,
        arrays: "dict[str, np.ndarray]",
    ):
        self.path = path
        self.manifest = manifest
        self._arrays = arrays
        self._graph: "Graph | None" = None

    def array(self, name: str) -> np.ndarray:
        return self._arrays[name]

    @property
    def n_nodes(self) -> int:
        return self.manifest.n_nodes

    @property
    def n_edges(self) -> int:
        return self.manifest.n_edges

    def edge_arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        return (
            self._arrays["edges_u"],
            self._arrays["edges_v"],
            self._arrays["edges_w"],
        )

    def graph(self) -> Graph:
        """Rebuild the projected :class:`Graph` (cached)."""
        if self._graph is None:
            u, v, w = self.edge_arrays()
            self._graph = Graph.from_edge_arrays(
                self.manifest.n_nodes, u, v, w
            )
        return self._graph

    def clustering(self) -> Clustering:
        return Clustering(
            labels=self._arrays["labels"],
            n_clusters=self.manifest.n_clusters,
            method=self.manifest.method,
        )

    def info(self) -> "dict[str, object]":
        """Summary dict (the serving tier's ``/graph/info`` body)."""
        w = self._arrays["edges_w"]
        return {
            "path": str(self.path),
            "created_at": self.manifest.created_at,
            "n_nodes": self.manifest.n_nodes,
            "n_edges": self.manifest.n_edges,
            "n_clusters": self.manifest.n_clusters,
            "method": self.manifest.method,
            "n_isolated": int(len(self._arrays["isolated"])),
            "n_skipped_hubs": int(len(self._arrays["skipped_hubs"])),
            "total_weight": float(w.sum()) if len(w) else 0.0,
            "provenance": dict(self.manifest.provenance),
        }


def open_graph_snapshot(
    path: "str | Path", mmap: bool = True
) -> GraphSnapshot:
    """Reopen a graph snapshot with structural validation.

    Checks manifest version and required fields, the array entries and
    the data file (:func:`~repro.store.manifest.load_arrays`), and count
    consistency (labels per
    node, one weight per edge).  Content checks (ranges, digest) live in
    :func:`validate_graph_snapshot` so a mmap-opened snapshot stays
    lazy.
    """
    directory = Path(path)
    manifest = GraphManifest.read(directory)
    if manifest.n_nodes < 0 or manifest.n_edges < 0 \
            or manifest.n_clusters < 0:
        raise SnapshotError(
            f"graph manifest counts must be non-negative at {directory}"
        )
    arrays = load_arrays(
        directory, manifest, "graph snapshot", _GRAPH_ARRAYS, mmap
    )
    for name in ("edges_u", "edges_v", "edges_w"):
        if arrays[name].shape != (manifest.n_edges,):
            raise SnapshotError(
                f"graph array {name!r} length {arrays[name].shape} does "
                f"not match manifest n_edges={manifest.n_edges}"
            )
    if arrays["labels"].shape != (manifest.n_nodes,):
        raise SnapshotError(
            f"graph labels length {arrays['labels'].shape} does not "
            f"match manifest n_nodes={manifest.n_nodes}"
        )
    return GraphSnapshot(directory, manifest, arrays)


def validate_graph_snapshot(path: "str | Path") -> GraphSnapshot:
    """Deep-check a graph snapshot; return it opened when sound.

    On top of :func:`open_graph_snapshot`'s structural checks: edge
    endpoints in range with ``u < v``, strictly positive weights, labels
    dense in ``[0, n_clusters)``, auxiliary node lists in range, and the
    manifest's sha256 content digest.
    """
    snapshot = open_graph_snapshot(path, mmap=True)
    manifest = snapshot.manifest
    u, v, w = snapshot.edge_arrays()
    n = manifest.n_nodes
    if len(u):
        if int(u.min()) < 0 or int(v.max()) >= n:
            raise SnapshotError(
                f"graph edge endpoints out of range [0, {n})"
            )
        if not (u < v).all():
            raise SnapshotError(
                "graph edges are not in canonical u < v order"
            )
        if not (w > 0).all():
            raise SnapshotError("graph edge weights must be positive")
    labels = snapshot.array("labels")
    if len(labels):
        if int(labels.min()) < 0 or int(labels.max()) >= manifest.n_clusters:
            raise SnapshotError(
                f"graph labels out of range [0, {manifest.n_clusters})"
            )
    elif manifest.n_clusters != 0:
        raise SnapshotError(
            "graph manifest declares clusters for an empty node set"
        )
    for name in ("isolated", "skipped_hubs"):
        aux = snapshot.array(name)
        if len(aux) and (int(aux.min()) < 0):
            raise SnapshotError(f"graph array {name!r} has negative ids")
    actual = graph_digest(
        {name: snapshot.array(name) for name in _GRAPH_ARRAYS}
    )
    if actual != manifest.content_digest:
        raise SnapshotError(
            f"graph snapshot content digest mismatch at {path}: "
            f"manifest {manifest.content_digest[:12]}…, "
            f"computed {actual[:12]}…"
        )
    return snapshot
