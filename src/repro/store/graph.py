"""Durable graph snapshots: scenario 2/3 outputs as addressable artifacts.

The graph scenarios (director interlock projection, bipartite pipeline)
used to end at an in-process ``ScenarioResult`` — the projected graph
and its clustering were invisible to the snapshot/serving tier.  This
module gives them the same durability contract as cube snapshots: a
self-describing directory of ``.npy`` columns plus a JSON manifest,
crash-safe to write, memory-mappable to reopen, and loudly invalid when
corrupted.

Layout::

    graph_snapshot/
      graph_manifest.json   version, counts, method, provenance, array map
      edges_u.npy           int64   (n_edges,)   edge endpoints, u < v
      edges_v.npy           int64   (n_edges,)   sorted by (u, v)
      edges_w.npy           float64 (n_edges,)   shared-individual weights
      labels.npy            int64   (n_nodes,)   clustering unit per node
      isolated.npy          int64               nodes with no projected edge
      skipped_hubs.npy      int64               sources skipped by the hub guard

The write protocol mirrors ``store/snapshot.py``: the stale manifest is
unlinked *first* and the new one written *last*, so a directory with a
readable manifest always describes a complete snapshot; unclaimed
``.npy`` files are pruned.  :func:`open_graph_snapshot` checks structure
(version, required arrays, dtypes, shapes, count consistency);
:func:`validate_graph_snapshot` additionally checks content (endpoint
ranges, ``u < v`` ordering, positive weights, label range, sha256
digest).  Every failure raises :class:`~repro.errors.SnapshotError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.errors import SnapshotError
from repro.graph.bipartite import ProjectionResult
from repro.graph.components import Clustering
from repro.graph.graph import Graph
from repro.store.manifest import _jsonable, save_array, write_atomic

#: Current graph snapshot format; readers refuse other versions.
GRAPH_FORMAT_VERSION = 1

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
class GraphArrayInfo:
    """Where one array lives and what it must look like."""

    file: str
    dtype: str
    shape: "list[int]"


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
    arrays: "dict[str, GraphArrayInfo]" = field(default_factory=dict)
    content_digest: "str | None" = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GraphManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SnapshotError(
                f"graph manifest is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise SnapshotError("graph manifest must be a JSON object")
        version = payload.get("format_version")
        if version != GRAPH_FORMAT_VERSION:
            raise SnapshotError(
                f"graph snapshot format version {version!r} is not "
                f"supported (this library reads version "
                f"{GRAPH_FORMAT_VERSION})"
            )
        required = ("created_at", "n_nodes", "n_edges", "n_clusters",
                    "method", "provenance", "arrays")
        missing = [name for name in required if name not in payload]
        if missing:
            raise SnapshotError(
                "graph manifest is missing required fields: "
                + ", ".join(missing)
            )
        arrays_raw = payload["arrays"]
        if not isinstance(arrays_raw, dict):
            raise SnapshotError("graph manifest 'arrays' must be an object")
        arrays = {}
        for name, info in arrays_raw.items():
            try:
                arrays[name] = GraphArrayInfo(
                    file=str(info["file"]),
                    dtype=str(info["dtype"]),
                    shape=[int(d) for d in info["shape"]],
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SnapshotError(
                    f"malformed graph array entry {name!r}: {info!r}"
                ) from exc
        try:
            return cls(
                format_version=int(version),
                created_at=str(payload["created_at"]),
                n_nodes=int(payload["n_nodes"]),
                n_edges=int(payload["n_edges"]),
                n_clusters=int(payload["n_clusters"]),
                method=str(payload["method"]),
                provenance=dict(payload["provenance"]),
                arrays=arrays,
                content_digest=(
                    str(payload["content_digest"])
                    if payload.get("content_digest") is not None else None
                ),
            )
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"graph manifest fields are malformed: {exc}"
            ) from exc

    def write(self, directory: "str | Path") -> Path:
        return write_atomic(
            Path(directory) / GRAPH_MANIFEST_NAME, self.to_json()
        )

    @classmethod
    def read(cls, directory: "str | Path") -> "GraphManifest":
        path = Path(directory) / GRAPH_MANIFEST_NAME
        if not path.is_file():
            raise SnapshotError(f"no graph snapshot manifest at {path}")
        return cls.from_json(path.read_text())


@dataclass
class GraphArtifact:
    """One scenario's graph output, ready to dump: projection + clustering."""

    graph: Graph
    clustering: Clustering
    isolated: "list[int]"
    skipped_hubs: "list[int]"
    provenance: "dict[str, object]" = field(default_factory=dict)

    @classmethod
    def from_result(
        cls,
        projection: ProjectionResult,
        clustering: Clustering,
        provenance: "dict[str, object] | None" = None,
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
            provenance=dict(provenance or {}),
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

    Crash-safe like the cube dump: stale manifest unlinked first, new
    manifest written last, orphan ``.npy`` files pruned.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / GRAPH_MANIFEST_NAME).unlink(missing_ok=True)

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
        provenance=_jsonable(artifact.provenance),
        content_digest=graph_digest(arrays),
    )
    for name, array in arrays.items():
        file = f"{name}.npy"
        save_array(directory / file, array)
        manifest.arrays[name] = GraphArrayInfo(
            file=file, dtype=_GRAPH_ARRAYS[name], shape=list(array.shape)
        )
    manifest.write(directory)
    expected = {info.file for info in manifest.arrays.values()}
    for stale in directory.glob("*.npy"):
        if stale.name not in expected:
            stale.unlink()
    return directory


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

    Checks manifest version and required fields, array presence, dtype
    and shape against the manifest, and count consistency (labels per
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
    arrays: "dict[str, np.ndarray]" = {}
    for name, dtype in _GRAPH_ARRAYS.items():
        info = manifest.arrays.get(name)
        if info is None:
            raise SnapshotError(
                f"graph manifest is missing array entry {name!r}"
            )
        if info.dtype != dtype:
            raise SnapshotError(
                f"graph array {name!r} declares dtype {info.dtype!r}, "
                f"expected {dtype!r}"
            )
        file = directory / info.file
        if not file.is_file():
            raise SnapshotError(f"graph snapshot is missing file {file}")
        try:
            array = np.load(file, mmap_mode="r" if mmap else None)
        except (ValueError, OSError) as exc:
            raise SnapshotError(
                f"graph array file {file} is unreadable: {exc}"
            ) from exc
        if str(array.dtype) != dtype:
            raise SnapshotError(
                f"graph array {name!r} has dtype {array.dtype}, "
                f"expected {dtype}"
            )
        if list(array.shape) != list(info.shape):
            raise SnapshotError(
                f"graph array {name!r} has shape {list(array.shape)}, "
                f"manifest declares {info.shape}"
            )
        if not mmap:
            array.setflags(write=False)
        arrays[name] = array
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
    if manifest.content_digest is not None:
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
