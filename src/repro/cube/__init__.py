"""The segregation data cube — the paper's core contribution.

Cells are addressed by (SA itemset, CA itemset) coordinate pairs with
``⋆`` wildcards; metrics are segregation indexes.  The itemset-driven
:class:`SegregationDataCubeBuilder` materialises the cube, and
:class:`TemporalCubeEngine` keeps it fresh across dates; the explorer
ranks cells and flags Simpson-style granularity reversals.
"""

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cell import CellStats
from repro.cube.compare import (
    CellComparison,
    CellSeries,
    compare_cubes,
    comparison_rows,
    describe_aligned,
    timeline_series,
)
from repro.cube.incremental import TemporalBuildState, TemporalCubeEngine
from repro.cube.coordinates import (
    STAR,
    CellKey,
    coordinate_columns,
    decode_part,
    describe_key,
    encode_query,
    make_key,
    parents_of,
)
from repro.cube.cube import (
    CubeMetadata,
    SegregationCube,
    check_same_cells,
)
from repro.cube.table import CellTable, TableArrays
from repro.cube.explorer import (
    Discovery,
    Reversal,
    simpson_reversals,
    summarize_cube,
    top_contexts,
)

__all__ = [
    "CellComparison",
    "CellKey",
    "CellSeries",
    "CellStats",
    "CellTable",
    "CubeMetadata",
    "Discovery",
    "Reversal",
    "STAR",
    "SegregationCube",
    "TableArrays",
    "TemporalBuildState",
    "TemporalCubeEngine",
    "SegregationDataCubeBuilder",
    "check_same_cells",
    "compare_cubes",
    "comparison_rows",
    "describe_aligned",
    "coordinate_columns",
    "decode_part",
    "describe_key",
    "encode_query",
    "make_key",
    "parents_of",
    "simpson_reversals",
    "summarize_cube",
    "timeline_series",
    "top_contexts",
]
