"""Segregation indexes: the metrics of the segregation data cube.

Each of the six binary indexes SCube ships (Dissimilarity, Gini,
Information, Isolation, Interaction, Atkinson) exists once, as a batched
kernel over a prepared :class:`CountBlock`; :func:`evaluate` is the one
evaluation path (cube fill, closed-mode resolver, trends, inference and
custom indexes alike).  Statistical inference helpers (bootstrap CIs and
randomisation tests) evaluate their draws as one block.
"""

from repro.indexes.base import (
    ATKINSON,
    DEFAULT_INDEXES,
    DISSIMILARITY,
    GINI,
    INFORMATION,
    INTERACTION,
    ISOLATION,
    IndexSpec,
    evaluate,
    get_index,
    register,
    resolve_indexes,
)
from repro.indexes.counts import UnitCounts
from repro.indexes.inference import (
    BootstrapResult,
    RandomizationResult,
    bootstrap_ci,
    randomization_test,
)
from repro.indexes.vectorized import CountBlock

__all__ = [
    "ATKINSON",
    "BootstrapResult",
    "CountBlock",
    "DEFAULT_INDEXES",
    "DISSIMILARITY",
    "GINI",
    "INFORMATION",
    "INTERACTION",
    "ISOLATION",
    "IndexSpec",
    "RandomizationResult",
    "UnitCounts",
    "bootstrap_ci",
    "evaluate",
    "get_index",
    "randomization_test",
    "register",
    "resolve_indexes",
]
