"""Dataset generators: synthetic substitutes for the paper's case studies.

The paper demos on proprietary registries of Italian and Estonian
company boards; these generators produce seeded synthetic datasets with
the same schema, bipartite structure, interlocks and planted
occupational segregation (the registries themselves are not public, so
seeded look-alikes stand in for them), plus planted-ground-truth tables
used for end-to-end verification.
"""

from repro.data import vocab
from repro.data.estonia import (
    EstoniaConfig,
    estonia_snapshot_table,
    generate_estonia,
)
from repro.data.italy import (
    BoardsDataset,
    ItalyConfig,
    generate_italy,
    italy_tabular_individuals,
)
from repro.data.schools import generate_schools
from repro.data.synthetic import (
    PlantedDataset,
    checkerboard_table,
    planted_counts,
    planted_table,
    random_bipartite_world,
    random_final_table,
    uniform_table,
    write_random_final_table_csv,
)

__all__ = [
    "BoardsDataset",
    "EstoniaConfig",
    "ItalyConfig",
    "PlantedDataset",
    "checkerboard_table",
    "estonia_snapshot_table",
    "generate_estonia",
    "generate_italy",
    "generate_schools",
    "italy_tabular_individuals",
    "planted_counts",
    "planted_table",
    "random_bipartite_world",
    "random_final_table",
    "uniform_table",
    "vocab",
    "write_random_final_table_csv",
]
