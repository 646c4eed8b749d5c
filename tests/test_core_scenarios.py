"""Tests of the three demo scenarios (paper §4)."""

from __future__ import annotations

import pytest

from repro.core.config import ClusteringConfig, CubeConfig, PipelineConfig
from repro.core.scenarios import (
    run_bipartite,
    run_director_graph,
    run_tabular,
)
from repro.data.italy import italy_tabular_individuals
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def cube_config():
    return CubeConfig(min_population=10, min_minority=3, max_sa_items=2,
                      max_ca_items=1)


class TestScenario1Tabular:
    def test_sector_units(self, italy_small, cube_config):
        seats, schema = italy_tabular_individuals(italy_small)
        result = run_tabular(seats, schema, "sector", cube_config)
        assert result.name == "tabular"
        assert result.n_units <= 20
        # The motivating question: how segregated are women across sectors?
        cell = result.cube.cell(sa={"gender": "F"})
        assert cell is not None
        assert 0 <= cell.value("D") <= 1
        assert "sector" not in result.cube.ca_attributes()

    def test_province_units(self, italy_small, cube_config):
        seats, schema = italy_tabular_individuals(italy_small)
        result = run_tabular(seats, schema, "province", cube_config)
        assert result.n_units <= 20
        assert "sector" in result.cube.ca_attributes()

    def test_timings_recorded(self, italy_small, cube_config):
        seats, schema = italy_tabular_individuals(italy_small)
        result = run_tabular(seats, schema, "sector", cube_config)
        assert set(result.timings) == {"table_builder", "cube_builder"}


class TestScenario2DirectorGraph:
    def test_units_are_director_communities(self, italy_small, cube_config):
        result = run_director_graph(italy_small, cube_config=cube_config)
        assert result.name == "director-graph"
        assert result.n_units > 1
        # Every director appears exactly once.
        assert len(result.final_table) == italy_small.n_individuals

    def test_threshold_clustering_variant(self, italy_small, cube_config):
        result = run_director_graph(
            italy_small,
            clustering_config=ClusteringConfig(method="threshold",
                                               min_weight=2.0),
            cube_config=cube_config,
        )
        base = run_director_graph(italy_small, cube_config=cube_config)
        assert result.n_units >= base.n_units

    def test_stoc_rejected_without_attributes(self, italy_small, cube_config):
        with pytest.raises(ConfigError, match=(
            "^clustering method 'stoc' needs node attributes; use "
            "'components' or 'threshold' for the director graph$"
        )):
            run_director_graph(
                italy_small,
                clustering_config=ClusteringConfig(method="stoc"),
                cube_config=cube_config,
            )


class TestScenario3Bipartite:
    def test_full_pipeline(self, italy_small, cube_config):
        result = run_bipartite(
            italy_small,
            PipelineConfig(
                clustering=ClusteringConfig(method="threshold", min_weight=2.0),
                cube=cube_config,
            ),
        )
        assert result.name == "bipartite"
        assert result.n_units > 1
        assert len(result.cube) > 0
        assert "graph_builder" in result.timings

    def test_default_config(self, italy_small):
        result = run_bipartite(italy_small)
        assert result.cube.cell(sa={"gender": "F"}) is not None
