"""Durable cube snapshots: build once, reopen and serve without rebuilding.

The segregation cube is expensive to build (ETL → mining → fill) and
cheap to read: its cells live in plain NumPy columns inside a
:class:`~repro.cube.table.CellTable`.  This subsystem persists those
columns as a **versioned on-disk snapshot** — one data file holding
every column at an aligned offset, plus a JSON manifest carrying the
schema, the item vocabulary (a delta takes its parent's), the index
names, the build provenance, the content digest and each column's
offset — and reopens them,
memory-mapped once or read into one buffer, as a fully functional
read-only :class:`~repro.cube.cube.SegregationCube`.

* :mod:`repro.store.manifest` — the store's file layer, through which
  every store module writes, renames, unlinks, fsyncs and loads: atomic
  manifest writes, the crash-safe dump protocol (laid out first, so
  its bytes are known before any is written; then the stale manifest
  unlinked, data file written and fsynced, manifest written last), the
  shared manifest preamble and the checked loader of the data file;
  plus the snapshot manifest format (version 3, validated, JSON, with
  an optional ``delta`` section).
* :mod:`repro.store.snapshot` — :func:`dump_snapshot`,
  :func:`dump_delta_snapshot`, :func:`open_snapshot`,
  :func:`validate_snapshot`.
* :mod:`repro.store.graph` — graph snapshots
  (:func:`dump_graph_snapshot`, :func:`open_graph_snapshot`,
  :func:`validate_graph_snapshot`): a projected graph and its
  clustering as edge/label arrays in one data file behind a
  ``graph_manifest.json``, so graph-derived queries are servable
  without re-projecting.
* :mod:`repro.store.timeline` — :class:`CubeTimeline` /
  :func:`dump_into_timeline`: a dated directory of snapshots where
  most dates are *deltas* storing only the cells that changed since
  the previous date (plus the superseded parent rows, keyed by their
  packed cell bitmasks), so a temporal sequence of cubes shares
  unchanged column bytes instead of duplicating them per date.  Each
  publish decides, before it writes anything, whether its date is a
  delta or a full snapshot: full when the parent's chain already has
  ``MAX_CHAIN`` hops, or when the delta's own bytes would reach
  ``MIN_BYTE_RATIO`` of its chain root's.  A published date is never
  rewritten; ``timeline.json`` tracks each date's chain length and own
  bytes.  A :class:`CubeTimeline` holds one cube, and a walk over its
  dates composes each onto the one before it; ``timeline_changes``
  keeps one walk's per-date changes for repeated trends.

Invariant: for any built cube, ``open_snapshot(dump_snapshot(cube))``
yields identical cells (``check_same_cells`` at ``atol=0``) and
identical ``top``/``slice``/pivot outputs, whether opened in memory or
memory-mapped — and the same holds for a delta snapshot resolved
through its parent chain.  Lazily-resolved closed-mode queries are the
one exception: the resolver needs the transaction covers, which a
snapshot does not carry, so reopened cubes answer point queries for
*materialised* cells only.
"""

from repro.store.graph import (
    GRAPH_FORMAT_VERSION,
    GRAPH_MANIFEST_NAME,
    GraphArtifact,
    GraphManifest,
    GraphSnapshot,
    dump_graph_snapshot,
    open_graph_snapshot,
    validate_graph_snapshot,
)
from repro.store.manifest import FORMAT_VERSION, MANIFEST_NAME, SnapshotManifest
from repro.store.snapshot import (
    delta_chain_length,
    dump_delta_snapshot,
    dump_snapshot,
    open_snapshot,
    snapshot_disk_bytes,
    table_digest,
    validate_snapshot,
)
from repro.store.timeline import (
    TIMELINE_MANIFEST_NAME,
    CubeTimeline,
    dump_into_timeline,
    read_timeline_manifest,
    timeline_dates,
)

__all__ = [
    "CubeTimeline",
    "FORMAT_VERSION",
    "GRAPH_FORMAT_VERSION",
    "GRAPH_MANIFEST_NAME",
    "GraphArtifact",
    "GraphManifest",
    "GraphSnapshot",
    "MANIFEST_NAME",
    "SnapshotManifest",
    "TIMELINE_MANIFEST_NAME",
    "delta_chain_length",
    "dump_delta_snapshot",
    "dump_graph_snapshot",
    "dump_into_timeline",
    "dump_snapshot",
    "open_graph_snapshot",
    "open_snapshot",
    "read_timeline_manifest",
    "snapshot_disk_bytes",
    "table_digest",
    "timeline_dates",
    "validate_graph_snapshot",
    "validate_snapshot",
]
