"""repro: a full reproduction of SCube (EDBT 2019).

SCube is a tool for *segregation discovery*: it materialises a
multi-dimensional data cube whose dimensions are segregation attributes
(sex, age, ...) and context attributes (region, sector, ...), and whose
metrics are social-science segregation indexes, computed over
organizational units derived from relational or graph data.

Quickstart::

    from repro import generate_schools, run_tabular, top_contexts

    table, schema = generate_schools()
    result = run_tabular(table, schema, unit_attr="school")
    for found in top_contexts(result.cube, "D", k=5):
        print(found.description, round(found.value, 3))

Subpackages
-----------
``repro.indexes``   segregation indexes (D, Gini, H, Isolation,
                    Interaction, Atkinson) and their inference
``repro.itemsets``  frequent/closed itemset mining over packed covers
``repro.cube``      the segregation data cube and its builders
``repro.graph``     bipartite projection and graph clustering
``repro.etl``       tables, schemas, CSV I/O, temporal membership
``repro.data``      synthetic case-study generators
``repro.report``    xlsx writer, pivots, radial series
``repro.store``     versioned on-disk cube snapshots (dump/open, mmap)
``repro.serve``     zero-rebuild query serving: CLI, HTTP, cache
``repro.core``      pipeline orchestration, scenarios, CLI
"""

from repro.core.config import (
    ClusteringConfig,
    CubeConfig,
    PipelineConfig,
)
from repro.core.pipeline import PipelineResult, SCubePipeline, cube_workbook
from repro.core.trend import segregation_trend
from repro.core.scenarios import (
    ScenarioResult,
    run_bipartite,
    run_director_graph,
    run_tabular,
)
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import SegregationCube
from repro.cube.explorer import simpson_reversals, top_contexts
from repro.cube.incremental import TemporalCubeEngine
from repro.data.estonia import EstoniaConfig, generate_estonia
from repro.data.italy import BoardsDataset, ItalyConfig, generate_italy
from repro.data.schools import generate_schools
from repro.errors import ReproError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.indexes.counts import UnitCounts
from repro.serve.cache import CachedCubeService
from repro.serve.router import open_service
from repro.serve.service import CubeService
from repro.store.snapshot import (
    dump_delta_snapshot,
    dump_snapshot,
    open_snapshot,
    validate_snapshot,
)
from repro.store.timeline import CubeTimeline, dump_into_timeline

__version__ = "1.0.0"

__all__ = [
    "BoardsDataset",
    "CachedCubeService",
    "ClusteringConfig",
    "CubeConfig",
    "CubeService",
    "CubeTimeline",
    "EstoniaConfig",
    "ItalyConfig",
    "PipelineConfig",
    "PipelineResult",
    "ReproError",
    "SCubePipeline",
    "ScenarioResult",
    "Schema",
    "SegregationCube",
    "SegregationDataCubeBuilder",
    "Table",
    "TemporalCubeEngine",
    "UnitCounts",
    "__version__",
    "cube_workbook",
    "dump_delta_snapshot",
    "dump_into_timeline",
    "dump_snapshot",
    "generate_estonia",
    "generate_italy",
    "generate_schools",
    "open_service",
    "open_snapshot",
    "run_bipartite",
    "run_director_graph",
    "run_tabular",
    "segregation_trend",
    "simpson_reversals",
    "top_contexts",
    "validate_snapshot",
]
