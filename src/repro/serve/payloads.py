"""Canonical JSON payloads for every serving query.

One function per query shape, used by *every* consumer — the HTTP tier
(:mod:`repro.serve.http`), the CLI's ``--json`` output and the parity
tests — so "the JSON answer to this query" is defined exactly once.
That single definition is what the HTTP acceptance contract rests on:
an endpoint's body is byte-identical to ``dumps(<payload fn>(service,
...))`` computed in-process.

The cell endpoints reach those bytes another way.  A cell's JSON never
changes while its cube is served, so the service renders each row once
(:meth:`~repro.serve.service.CubeService.rendered`) as its
:func:`cell_fragment`, and a ``/slice``, ``/children`` or ``/parents``
body is :func:`cells_body`, those fragments joined: the bytes of
``dumps(cells_payload(...))`` over the same cells, since both build a
cell with ``_cell`` and order cells by one key.  ``cells_payload`` and
``cell_payload`` are what the CLI's ``--json``, the benchmarks and the
parity tests call.

Two canonicalisation rules make the bytes deterministic:

* NaN index values serialise as ``null`` (JSON has no NaN; ``dumps``
  enforces it with ``allow_nan=False``), matching the CLI.
* Cell lists (``slice`` / ``children`` / ``parents``) are ordered by
  ``(depth, description)`` — a property of the *cells*, not of any
  store's row order — so the same cells give the same bytes whether
  they were served from a live cube, a snapshot or a timeline date,
  however a dump or a delta chain ordered the rows.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter

from repro.cube.cell import CellStats


def dumps(payload: object) -> bytes:
    """The one JSON serialisation used on the wire (byte-deterministic)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False,
    ).encode("utf-8")


def _number(value: float) -> "float | None":
    return None if math.isnan(value) else value


def _cell(description: str, stats: CellStats, index_names: "list[str]"
          ) -> "dict[str, object]":
    return {
        "cell": description,
        "population": stats.population,
        "minority": stats.minority,
        "n_units": stats.n_units,
        "indexes": {
            name: _number(stats.value(name)) for name in index_names
        },
    }


#: The canonical order of a cell list, over ``(depth, description, ...)``
#: tuples.
_ORDER = itemgetter(0, 1)


def cell_fragment(description: str, stats: CellStats,
                  index_names: "list[str]") -> bytes:
    """One cell's JSON bytes: a ``/cell`` body, or one element of a
    cell-list body."""
    return dumps(_cell(description, stats, index_names))


def cells_body(entries: "list[tuple[int, str, bytes]]") -> bytes:
    """A cell-list body from its cells' ``(depth, description,
    fragment)`` entries: equal to ``dumps(cells_payload(...))`` over the
    same cells in the same order.  Sorts ``entries`` in place."""
    entries.sort(key=_ORDER)
    return b"[" + b",".join([entry[2] for entry in entries]) + b"]"


def cell_payload(service, stats: "CellStats | None"
                 ) -> "dict[str, object] | None":
    """One cell as JSON (None for a missing cell -> ``null`` body)."""
    if stats is None:
        return None
    return _cell(service.describe(stats.key), stats, service.index_names)


def cells_payload(service, cells: "list[CellStats]"
                  ) -> "list[dict[str, object]]":
    """A cell list in canonical ``(depth, description)`` order.

    Each cell is described once, for both its sort key and its ``cell``
    field.
    """
    index_names = service.index_names
    described = [
        (stats.depth(), service.describe(stats.key), stats)
        for stats in cells
    ]
    described.sort(key=_ORDER)
    return [
        _cell(description, stats, index_names)
        for _, description, stats in described
    ]


def info_payload(service) -> "dict[str, object]":
    """``service.info()`` made JSON-safe (paths to str, ints plain)."""
    return _jsonable(service.info())


def dates_payload(service) -> "dict[str, object]":
    return {
        "dates": [int(d) for d in service.dates()],
        "served_date": (
            int(service.date) if getattr(service, "date", None) is not None
            else None
        ),
    }


def top_payload(
    service,
    index_name: str = "D",
    k: int = 10,
    min_minority: int = 0,
    min_population: int = 0,
    min_units: int = 2,
) -> "list[dict[str, object]]":
    found = service.top(
        index_name=index_name,
        k=k,
        min_minority=min_minority,
        min_population=min_population,
        min_units=min_units,
    )
    return [
        {
            "rank": f.rank,
            "cell": f.description,
            "index": f.index_name,
            "value": _number(f.value),
            "population": f.population,
            "minority": f.minority,
            "n_units": f.n_units,
        }
        for f in found
    ]


def trend_payload(service, index_name: str = "D", sa=None, ca=None
                  ) -> "list[dict[str, object]]":
    return [
        {
            "date": int(date),
            "index": index_name,
            "value": _number(value),
        }
        for date, value in service.trend(index_name=index_name, sa=sa, ca=ca)
    ]


def pivot_payload(
    service,
    index_name: str,
    row_attr: str,
    col_attr: str,
    fixed_sa=None,
    fixed_ca=None,
) -> "dict[str, object]":
    rows, cols, matrix = service.pivot_values(
        index_name, row_attr, col_attr, fixed_sa=fixed_sa, fixed_ca=fixed_ca,
    )
    return {
        "rows": rows,
        "cols": cols,
        "values": [[_number(v) for v in line] for line in matrix],
    }


def graph_info_payload(graph_service) -> "dict[str, object]":
    """``GraphService.info()`` made JSON-safe (the ``/graph/info`` body)."""
    return _jsonable(graph_service.info())


def graph_clusters_payload(graph_service, k: int = 10, min_size: int = 1
                           ) -> "list[dict[str, object]]":
    """The ``k`` largest clusters (the ``/graph/clusters`` body)."""
    return _jsonable(graph_service.clusters(k=k, min_size=min_size))


def graph_degree_payload(graph_service, node: "int | None" = None,
                         k: int = 10) -> object:
    """One node's degree record, or the top-``k`` by degree when no node
    is given (the ``/graph/degree`` body)."""
    if node is not None:
        return _jsonable(graph_service.node(node))
    return _jsonable(graph_service.top_degree(k=k))


def _jsonable(obj: object) -> object:
    """Plain-JSON view of nested info dicts (Paths, numpy ints, NaN)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, float):
        return _number(obj)
    if isinstance(obj, int):
        return obj
    item = getattr(obj, "item", None)   # numpy scalars
    if callable(item):
        return _jsonable(item())
    return str(obj)
