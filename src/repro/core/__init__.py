"""SCube orchestration: configuration, pipeline, demo scenarios, CLI."""

from repro.core.config import (
    CLUSTERING_METHODS,
    ClusteringConfig,
    CubeConfig,
    PipelineConfig,
)
from repro.core.pipeline import (
    PipelineResult,
    SCubePipeline,
    cube_workbook,
    group_attribute_table,
)
from repro.core.trend import (
    TrendPoint,
    segregation_trend,
    snapshot_seats_table,
    trend_rows,
)
from repro.core.scenarios import (
    ScenarioResult,
    run_bipartite,
    run_director_graph,
    run_tabular,
)

__all__ = [
    "CLUSTERING_METHODS",
    "ClusteringConfig",
    "CubeConfig",
    "PipelineConfig",
    "PipelineResult",
    "SCubePipeline",
    "ScenarioResult",
    "TrendPoint",
    "cube_workbook",
    "group_attribute_table",
    "run_bipartite",
    "run_director_graph",
    "run_tabular",
    "segregation_trend",
    "snapshot_seats_table",
    "trend_rows",
]
