"""The SCube pipeline: GraphBuilder → GraphClustering → TableBuilder →
SegregationDataCubeBuilder → Visualizer (paper Fig. 2).

:class:`SCubePipeline` wires the five modules together for the bipartite
scenario (the paper's running case study); the simpler tabular and
unipartite scenarios live in :mod:`repro.core.scenarios`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import PipelineConfig
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import SegregationCube
from repro.data.italy import BoardsDataset
from repro.errors import ConfigError
from repro.etl.builder import build_final_table
from repro.etl.schema import Role, Schema
from repro.etl.table import Table
from repro.graph.attributes import NodeAttributeTable
from repro.graph.bipartite import ProjectionResult, project_onto_groups
from repro.graph.components import Clustering, connected_components
from repro.graph.stoc import stoc_clustering
from repro.graph.threshold import threshold_components
from repro.report.xlsx import Workbook, rows_to_workbook


@dataclass
class PipelineResult:
    """Everything the pipeline produced, step by step."""

    projection: ProjectionResult
    clustering: Clustering
    final_table: Table
    final_schema: Schema
    cube: SegregationCube
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def n_units(self) -> int:
        return self.clustering.n_clusters


class SCubePipeline:
    """Orchestrates the five SCube modules over a boards dataset."""

    def __init__(self, config: "PipelineConfig | None" = None):
        self.config = config or PipelineConfig()

    # -- module 1: GraphBuilder ---------------------------------------

    def build_graph(self, dataset: BoardsDataset) -> ProjectionResult:
        """Project the bipartite graph onto groups (weighted by sharing)."""
        bipartite = dataset.bipartite(self.config.snapshot_date)
        return project_onto_groups(
            bipartite,
            min_shared=self.config.projection.min_shared,
            max_left_degree=self.config.projection.max_degree,
        )

    # -- module 2: GraphClustering ------------------------------------

    def cluster(
        self, dataset: BoardsDataset, projection: ProjectionResult
    ) -> Clustering:
        """Partition groups into organizational units."""
        cfg = self.config.clustering
        if cfg.method == "components":
            return connected_components(projection.graph)
        if cfg.method == "threshold":
            return threshold_components(projection.graph, cfg.min_weight)
        if cfg.method == "stoc":
            attributes = group_attribute_table(dataset)
            return stoc_clustering(
                projection.graph,
                attributes,
                tau=cfg.tau,
                alpha=cfg.alpha,
                horizon=cfg.horizon,
                seed=cfg.seed,
            )
        raise ConfigError(f"unknown clustering method {cfg.method!r}")

    # -- module 3: TableBuilder ---------------------------------------

    def build_table(
        self, dataset: BoardsDataset, clustering: Clustering
    ) -> tuple[Table, Schema]:
        """Join individual and group features into ``finalTable``."""
        membership = dataset.membership.snapshot(self.config.snapshot_date)
        return build_final_table(
            dataset.individuals,
            dataset.individuals_schema,
            dataset.groups,
            dataset.groups_schema,
            membership,
            clustering.node_unit(),
        )

    # -- module 4: SegregationDataCubeBuilder --------------------------

    def build_cube(self, table: Table, schema: Schema) -> SegregationCube:
        """Materialise the segregation data cube."""
        cfg = self.config.cube
        builder = SegregationDataCubeBuilder(
            indexes=cfg.indexes,
            min_population=cfg.min_population,
            min_minority=cfg.min_minority,
            max_sa_items=cfg.max_sa_items,
            max_ca_items=cfg.max_ca_items,
            mode=cfg.mode,
        )
        return builder.build(table, schema)

    # -- end to end -----------------------------------------------------

    def run(self, dataset: BoardsDataset) -> PipelineResult:
        """Run all pipeline steps, recording per-step wall-clock times."""
        timings: dict[str, float] = {}
        t0 = time.perf_counter()
        projection = self.build_graph(dataset)
        timings["graph_builder"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        clustering = self.cluster(dataset, projection)
        timings["graph_clustering"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        final_table, final_schema = self.build_table(dataset, clustering)
        timings["table_builder"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        cube = self.build_cube(final_table, final_schema)
        timings["cube_builder"] = time.perf_counter() - t0

        return PipelineResult(
            projection=projection,
            clustering=clustering,
            final_table=final_table,
            final_schema=final_schema,
            cube=cube,
            timings=timings,
        )


def group_attribute_table(dataset: BoardsDataset) -> NodeAttributeTable:
    """Node attributes for SToC from the groups' CA columns."""
    columns = {}
    for spec in dataset.groups_schema.specs:
        if spec.role is Role.CONTEXT and not spec.multi_valued:
            columns[spec.name] = dataset.groups.categorical(spec.name).values()
    return NodeAttributeTable.from_columns(len(dataset.groups), columns)


def cube_workbook(cube: SegregationCube) -> Workbook:
    """Build the Visualizer workbook: cube sheet plus a summary sheet.

    Works over any :class:`SegregationCube` — a freshly built cube or a
    snapshot reopened by :func:`repro.store.open_snapshot`.
    """
    workbook = rows_to_workbook(cube.to_rows(), sheet_name="cube")
    summary = workbook.add_sheet("summary")
    summary.append_header(["key", "value"])
    summary.append_row(["cells", len(cube)])
    summary.append_row(["indexes", ", ".join(cube.metadata.index_names)])
    summary.append_row(["rows", cube.metadata.n_rows])
    summary.append_row(["units", cube.metadata.n_units])
    summary.append_row(["min_population", cube.metadata.min_population])
    summary.append_row(["min_minority", cube.metadata.min_minority])
    summary.append_row(["mode", cube.metadata.mode])
    summary.append_row(
        ["build_seconds", round(cube.metadata.build_seconds, 4)]
    )
    return workbook
