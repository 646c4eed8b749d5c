"""CSV reading and writing for SCube inputs and outputs.

The SCube architecture (paper Fig. 2/3) exchanges every intermediate
artefact as CSV: ``individual.csv``, ``group.csv``,
``individualGroup.csv`` (membership), ``finalTable.csv`` and
``cube.csv``.  Reading is :func:`~repro.etl.stream.stream_csv` taken
as one chunk; this module adds the writers.  Both cell rules live in
:mod:`repro.etl.stream`: a set cell is written by
:func:`~repro.etl.stream.format_set` (members in ``str`` order joined by
``|``, e.g. ``electricity|transports``), which refuses a set the reader
could not read back, and a whole table is formatted before its file is
opened, so a refused set leaves no file behind.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.etl.stream import ONE_CHUNK, format_set, stream_csv
from repro.etl.table import Table


def read_table(
    path: str | Path,
    multi_valued: Iterable[str] = (),
    integer: Iterable[str] = (),
    delimiter: str = ",",
) -> Table:
    """Read a CSV file with a header row into a :class:`Table`.

    The single chunk of :func:`~repro.etl.stream.stream_csv`, which
    holds the cell rules.

    Parameters
    ----------
    multi_valued:
        Column names whose cells are ``|``-separated value sets.
    integer:
        Column names to parse as integers (ids, unit ids).
    """
    (table,) = stream_csv(
        path, multi_valued=multi_valued, integer=integer,
        delimiter=delimiter, chunk_rows=ONE_CHUNK,
    )
    return table


def _format_cell(column: str, value: object) -> str:
    if isinstance(value, (frozenset, set)):
        return format_set(column, value)
    return str(value)


def write_table(table: Table, path: str | Path, delimiter: str = ",") -> None:
    """Write ``table`` to CSV with a header row."""
    names = table.names
    rows = ([row[name] for name in names] for row in table.iter_rows())
    write_rows(rows, names, path, delimiter)


def write_rows(
    rows: Iterable[Sequence[object]],
    header: Sequence[str],
    path: str | Path,
    delimiter: str = ",",
) -> None:
    """Write raw rows (any sequence of cells) with a header to CSV.

    Every row is as wide as ``header``; all rows are formatted before
    the file is opened.
    """
    header = list(header)
    formatted = [
        [
            _format_cell(name, cell)
            for name, cell in zip(header, row, strict=True)
        ]
        for row in rows
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(formatted)
