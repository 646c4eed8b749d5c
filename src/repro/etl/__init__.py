"""Relational ETL substrate: tables, schemas, CSV and SQL I/O, time.

This package plays the role of SCube's data pre-processing layer
(paper Fig. 3, "ETL"): it turns raw inputs into the ``finalTable``
consumed by the SegregationDataCubeBuilder.
"""

from repro.etl.builder import (
    UNIT_COLUMN,
    build_final_table,
    tabular_final_table,
)
from repro.etl.csvio import read_table, write_rows, write_table
from repro.etl.diff import OPEN_END, OPEN_START, interval_bounds, valid_at
from repro.etl.sqlio import read_query, write_table_sql
from repro.etl.stream import DEFAULT_CHUNK_ROWS, stream_csv, stream_query
from repro.etl.schema import AttributeSpec, Role, Schema
from repro.etl.table import (
    CategoricalColumn,
    Column,
    IntColumn,
    MultiValuedColumn,
    Table,
)
from repro.etl.temporal import (
    ALWAYS,
    Interval,
    MembershipEdge,
    TemporalMembership,
)

__all__ = [
    "ALWAYS",
    "AttributeSpec",
    "DEFAULT_CHUNK_ROWS",
    "CategoricalColumn",
    "Column",
    "IntColumn",
    "Interval",
    "MembershipEdge",
    "MultiValuedColumn",
    "OPEN_END",
    "OPEN_START",
    "Role",
    "Schema",
    "Table",
    "TemporalMembership",
    "UNIT_COLUMN",
    "build_final_table",
    "interval_bounds",
    "read_query",
    "read_table",
    "stream_csv",
    "stream_query",
    "tabular_final_table",
    "valid_at",
    "write_rows",
    "write_table_sql",
    "write_table",
]
