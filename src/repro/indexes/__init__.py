"""Segregation indexes: the metrics of the segregation data cube.

Implements the six binary indexes SCube ships (Dissimilarity, Gini,
Information, Isolation, Interaction, Atkinson), their batched kernels
for the cube fill, and statistical inference helpers (bootstrap CIs and
randomisation tests).
"""

from repro.indexes.base import (
    ATKINSON,
    DEFAULT_INDEXES,
    DISSIMILARITY,
    GINI,
    INFORMATION,
    INTERACTION,
    ISOLATION,
    BatchIndexFunc,
    IndexFunc,
    IndexSpec,
    get_index,
    register,
    resolve_indexes,
)
from repro.indexes.binary import (
    atkinson,
    dissimilarity,
    gini,
    information,
    interaction,
    isolation,
)
from repro.indexes.counts import UnitCounts
from repro.indexes.inference import (
    BootstrapResult,
    RandomizationResult,
    bootstrap_ci,
    randomization_test,
)

__all__ = [
    "ATKINSON",
    "BatchIndexFunc",
    "BootstrapResult",
    "DEFAULT_INDEXES",
    "DISSIMILARITY",
    "GINI",
    "INFORMATION",
    "INTERACTION",
    "ISOLATION",
    "IndexFunc",
    "IndexSpec",
    "RandomizationResult",
    "UnitCounts",
    "atkinson",
    "bootstrap_ci",
    "dissimilarity",
    "get_index",
    "gini",
    "information",
    "interaction",
    "isolation",
    "randomization_test",
    "register",
    "resolve_indexes",
]
