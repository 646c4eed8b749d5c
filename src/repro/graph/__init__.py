"""Graph substrate: storage, bipartite projection, clustering, metrics.

Implements SCube's GraphBuilder and GraphClustering modules (paper §3):
weighted undirected graphs, projection of the individuals×groups
bipartite graph, connected components, giant-component weight
thresholding, and the SToC attributed-graph clustering algorithm.

Every hot path is array-native: CSR-backed graphs (``graph.py``,
``bipartite.py``), a vectorized sort-count projection, union-find
components over edge arrays (``components.py``), a level-synchronous
batched SToC frontier (``stoc.py``) and an O(edges)-per-step threshold
sweep (``threshold.py``).  All of it is result-identical to the
set/BFS reference implementations in ``tests/oracles.py``, which the
property tests in ``tests/test_graph_engine.py`` enforce.
"""

from repro.graph.attributes import NodeAttributeTable
from repro.graph.bipartite import (
    BipartiteGraph,
    ProjectionResult,
    project_onto_groups,
    project_onto_individuals,
)
from repro.graph.components import (
    Clustering,
    bfs_distances,
    connected_components,
)
from repro.graph.graph import Graph
from repro.graph.metrics import (
    ClusteringSummary,
    attribute_homogeneity,
    conductance,
    conductance_all,
    mean_conductance,
    modularity,
    summarize,
)
from repro.graph.stoc import stoc_clustering
from repro.graph.threshold import threshold_components, threshold_profile

__all__ = [
    "BipartiteGraph",
    "Clustering",
    "ClusteringSummary",
    "Graph",
    "NodeAttributeTable",
    "ProjectionResult",
    "attribute_homogeneity",
    "bfs_distances",
    "conductance",
    "conductance_all",
    "connected_components",
    "mean_conductance",
    "modularity",
    "project_onto_groups",
    "project_onto_individuals",
    "stoc_clustering",
    "summarize",
    "threshold_components",
    "threshold_profile",
]
