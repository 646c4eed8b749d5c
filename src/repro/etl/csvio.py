"""CSV reading and writing for SCube inputs and outputs.

The SCube architecture (paper Fig. 2/3) exchanges every intermediate
artefact as CSV: ``individual.csv``, ``group.csv``,
``individualGroup.csv`` (membership), ``finalTable.csv`` and
``cube.csv``.  Multi-valued cells are serialised with an inner separator
(``|``, values in ``str`` order), e.g. ``electricity|transports``.
Reading is :func:`~repro.etl.stream.stream_csv` taken as one chunk;
this module adds the writers.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.etl.stream import ONE_CHUNK, SET_SEPARATOR, stream_csv
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


def _format_cell(value: object) -> str:
    if isinstance(value, (frozenset, set)):
        return SET_SEPARATOR.join(sorted(str(v) for v in value))
    return str(value)


def write_table(table: Table, path: str | Path, delimiter: str = ",") -> None:
    """Write ``table`` to CSV with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(table.names)
        for row in table.iter_rows():
            writer.writerow([_format_cell(row[name]) for name in table.names])


def write_rows(
    rows: Iterable[Sequence[object]],
    header: Sequence[str],
    path: str | Path,
    delimiter: str = ",",
) -> None:
    """Write raw rows (any sequence of cells) with a header to CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
