"""Configuration dataclasses for the SCube pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

CLUSTERING_METHODS = ("components", "threshold", "stoc")


@dataclass
class ClusteringConfig:
    """GraphClustering parameters; ``method`` picks the algorithm.

    * ``components`` — BFS connected components;
    * ``threshold`` — giant-component weight thresholding (JIIS method),
      uses ``min_weight``;
    * ``stoc`` — SToC attributed clustering at its defaults
      (:func:`repro.graph.stoc.stoc_clustering`).
    """

    method: str = "threshold"
    min_weight: float = 2.0

    def __post_init__(self) -> None:
        if self.method not in CLUSTERING_METHODS:
            raise ConfigError(
                f"unknown clustering method {self.method!r}; "
                f"choose from {CLUSTERING_METHODS}"
            )


@dataclass
class CubeConfig:
    """SegregationDataCubeBuilder parameters."""

    indexes: "list[str] | None" = None
    min_population: "int | float" = 20
    min_minority: "int | float" = 5
    max_sa_items: "int | None" = 2
    max_ca_items: "int | None" = 2


@dataclass
class PipelineConfig:
    """End-to-end SCube configuration (paper Fig. 2)."""

    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    cube: CubeConfig = field(default_factory=CubeConfig)
    #: Snapshot date for temporal membership (None = all edges).
    snapshot_date: "int | None" = None
