"""Tests of configuration and the five-module pipeline."""

from __future__ import annotations

import xml.etree.ElementTree as ET
import zipfile

import pytest

from repro.core.config import (
    ClusteringConfig,
    CubeConfig,
    PipelineConfig,
)
from repro.core.pipeline import (
    SCubePipeline,
    cube_workbook,
    group_attribute_table,
)
from repro.errors import ConfigError


class TestConfigs:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.clustering.method == "threshold"

    def test_invalid_clustering_method(self):
        with pytest.raises(ConfigError):
            ClusteringConfig(method="bogus")


class TestPipelineSteps:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return SCubePipeline(
            PipelineConfig(
                clustering=ClusteringConfig(method="threshold", min_weight=2.0),
                cube=CubeConfig(min_population=10, min_minority=3,
                                max_sa_items=2, max_ca_items=1),
            )
        )

    def test_graph_builder(self, pipeline, italy_small):
        projection = pipeline.build_graph(italy_small)
        assert projection.graph.n_nodes == italy_small.n_groups
        assert projection.graph.n_edges > 0

    def test_clustering_step(self, pipeline, italy_small):
        projection = pipeline.build_graph(italy_small)
        clustering = pipeline.cluster(italy_small, projection)
        assert clustering.n_clusters > 1
        assert len(clustering.labels) == italy_small.n_groups

    def test_stoc_clustering_path(self, italy_small):
        pipeline = SCubePipeline(
            PipelineConfig(clustering=ClusteringConfig(method="stoc"))
        )
        projection = pipeline.build_graph(italy_small)
        clustering = pipeline.cluster(italy_small, projection)
        assert clustering.n_clusters > 1

    def test_components_clustering_path(self, italy_small):
        pipeline = SCubePipeline(
            PipelineConfig(clustering=ClusteringConfig(method="components"))
        )
        projection = pipeline.build_graph(italy_small)
        clustering = pipeline.cluster(italy_small, projection)
        assert clustering.method == "connected-components"

    def test_table_builder(self, pipeline, italy_small):
        projection = pipeline.build_graph(italy_small)
        clustering = pipeline.cluster(italy_small, projection)
        table, schema = pipeline.build_table(italy_small, clustering)
        assert len(table) > 0
        assert schema.unit_name == "unitID"
        assert schema.spec("sector").multi_valued
        schema.validate(table)

    def test_run_end_to_end(self, pipeline, italy_small):
        result = pipeline.run(italy_small)
        assert len(result.cube) > 10
        assert set(result.timings) == {
            "graph_builder", "graph_clustering", "table_builder",
            "cube_builder",
        }
        assert result.n_units == result.clustering.n_clusters

    def test_visualize_writes_workbook(self, pipeline, italy_small, tmp_path):
        result = pipeline.run(italy_small)
        path = cube_workbook(result.cube).save(tmp_path / "scube.xlsx")
        assert path.exists()
        with zipfile.ZipFile(path) as zf:
            assert "xl/worksheets/sheet1.xml" in zf.namelist()
            assert "xl/worksheets/sheet2.xml" in zf.namelist()


class TestHelpers:
    def test_group_attribute_table(self, italy_small):
        attrs = group_attribute_table(italy_small)
        assert attrs.n_nodes == italy_small.n_groups
        assert "sector" in attrs.names

    def test_cube_workbook_summary_sheet(self, italy_small, tmp_path):
        pipeline = SCubePipeline()
        result = pipeline.run(italy_small)
        path = cube_workbook(result.cube).save(tmp_path / "scube.xlsx")
        with zipfile.ZipFile(path) as zf:
            workbook = ET.fromstring(zf.read("xl/workbook.xml"))
        names = [sheet.get("name") for sheet in workbook.iter(
            "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}sheet"
        )]
        assert names == ["cube", "summary"]
