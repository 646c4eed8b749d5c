"""The demo's three analysis scenarios (paper §4).

All three answer "how much are women segregated in ...", over inputs of
increasing complexity:

1. **tabular** — units come straight from a column (the company sector):
   "how much are women segregated in company sectors?";
2. **director graph** — nodes are directors, edges connect directors
   sharing a board; organizational units are graph communities:
   "... in communities of connected directors?";
3. **bipartite** — the full pipeline: project companies over shared
   directors, cluster, join, cube:
   "... in communities of connected companies?".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import ClusteringConfig, CubeConfig, PipelineConfig
from repro.core.pipeline import (
    PipelineResult,
    SCubePipeline,
    cluster_graph,
    cube_builder,
)
from repro.cube.cube import SegregationCube
from repro.data.italy import BoardsDataset
from repro.etl.builder import UNIT_COLUMN, tabular_final_table
from repro.etl.schema import AttributeSpec, Role, Schema
from repro.etl.table import IntColumn, Table
from repro.graph.bipartite import project_onto_individuals


@dataclass
class ScenarioResult:
    """Output of one demo scenario."""

    name: str
    cube: SegregationCube
    final_table: Table
    final_schema: Schema
    n_units: int
    timings: dict[str, float] = field(default_factory=dict)


def run_tabular(
    table: Table,
    schema: Schema,
    unit_attr: str,
    cube_config: "CubeConfig | None" = None,
) -> ScenarioResult:
    """Scenario 1: a context attribute (e.g. ``sector``) is the unit."""
    t0 = time.perf_counter()
    final_table, final_schema = tabular_final_table(table, schema, unit_attr)
    table_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    cube = cube_builder(cube_config or CubeConfig()).build(
        final_table, final_schema
    )
    return ScenarioResult(
        name="tabular",
        cube=cube,
        final_table=final_table,
        final_schema=final_schema,
        n_units=cube.metadata.n_units,
        timings={
            "table_builder": table_seconds,
            "cube_builder": time.perf_counter() - t0,
        },
    )


def run_director_graph(
    dataset: BoardsDataset,
    clustering_config: "ClusteringConfig | None" = None,
    cube_config: "CubeConfig | None" = None,
) -> ScenarioResult:
    """Scenario 2: cluster the director-director graph into units.

    Two directors are connected when they sit on at least one common
    board; each community of connected directors becomes one unit, and
    every director belongs to exactly one unit.  The director graph has
    no node attributes, so SToC is refused.
    """
    clustering_config = clustering_config or ClusteringConfig(method="components")
    t0 = time.perf_counter()
    projection = project_onto_individuals(dataset.bipartite())
    graph_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    clustering = cluster_graph(projection.graph, clustering_config, None)
    cluster_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    labels = clustering.labels
    final_table = dataset.individuals.without_columns(
        [dataset.individuals_schema.id_name]
    ).with_column(UNIT_COLUMN, IntColumn(labels))
    specs = [
        s
        for s in dataset.individuals_schema.specs
        if s.role in (Role.SEGREGATION, Role.CONTEXT)
    ]
    specs.append(AttributeSpec(UNIT_COLUMN, Role.UNIT))
    final_schema = Schema(specs)
    table_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    cube = cube_builder(cube_config or CubeConfig()).build(
        final_table, final_schema
    )
    return ScenarioResult(
        name="director-graph",
        cube=cube,
        final_table=final_table,
        final_schema=final_schema,
        n_units=clustering.n_clusters,
        timings={
            "graph_builder": graph_seconds,
            "graph_clustering": cluster_seconds,
            "table_builder": table_seconds,
            "cube_builder": time.perf_counter() - t0,
        },
    )


def run_bipartite(
    dataset: BoardsDataset, config: "PipelineConfig | None" = None
) -> ScenarioResult:
    """Scenario 3: the full bipartite pipeline (companies projected over
    shared directors, clustered into communities of connected companies).
    """
    result: PipelineResult = SCubePipeline(config).run(dataset)
    return ScenarioResult(
        name="bipartite",
        cube=result.cube,
        final_table=result.final_table,
        final_schema=result.final_schema,
        n_units=result.n_units,
        timings=result.timings,
    )
