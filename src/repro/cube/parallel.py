"""Multiprocess columnar fill: ``engine="parallel"``.

The columnar fill's phases B/C — per-unit counting plus batched index
kernels — are embarrassingly parallel across *context groups*: every
candidate cell of a context needs only that context's population vector,
its own cover, and the unit labels.  This module partitions the context
groups across the package's one shared-memory pool (:mod:`repro._pool`):

* the packed ``uint64`` cover words of all SA-bearing candidates and the
  per-row unit labels are shared **once** with every worker instead of
  being pickled per task;
* context groups are partitioned greedy largest-first by cell count, so
  one popular context cannot serialise the fill behind it;
* each worker rebuilds a *units-only* counting database over the shared
  labels and runs the exact kernels of the single-process engine
  (:meth:`~repro.itemsets.transactions.TransactionDatabase.unit_counts_many`
  plus the shared :func:`~repro.cube.builder.eval_context_block`) over
  its contexts, in the same ``_FILL_BATCH_CELLS``-bounded batches;
* the parent scatters the returned column slabs into the candidate
  arrays and assembles one :class:`~repro.cube.table.CellTable` through
  the same phase D as ``engine="columnar"``.

Because every number is produced by the very same NumPy call sequence on
the very same inputs, the parallel cube is **bit-exact** (``atol=0``)
against the columnar one — ``tests/test_cube_parallel.py`` asserts this
on every dataset it builds, in both modes.  A raising worker surfaces as
:class:`~repro.errors.CubeError`.
"""

from __future__ import annotations

import numpy as np

from repro import _pool
from repro.cube.builder import (
    _FILL_BATCH_CELLS,
    MinedCoordinates,
    SegregationDataCubeBuilder,
    eval_context_block,
)
from repro.cube.table import CellTable
from repro.errors import CubeError
from repro.itemsets.coverset import CoverSet, cover_matrix
from repro.itemsets.items import ItemDictionary
from repro.itemsets.transactions import TransactionDatabase


def _fill_partition(groups: list, cfg: dict, arrays: dict) -> list:
    """Pool task: phases B/C over one partition's context groups.

    Each group is ``(tvec, rows)``: the context's per-unit population
    vector and the cover-matrix rows of its candidate cells.  Returns
    ``[(rows, totals, keep, values), ...]`` — arrays owned by the
    worker, safe to pickle back.
    """
    cover_words = arrays["covers"]
    units = arrays["units"]
    # A units-only counting database: no items, same unit->rows
    # grouping — unit_counts_many runs verbatim.
    empty = np.empty(0, dtype=np.int64)
    db = TransactionDatabase.from_item_arrays(
        empty, empty, len(units), ItemDictionary(), units=units
    )
    specs = cfg["specs"]
    n_bits = cfg["n_bits"]
    max_batch = max(1, _FILL_BATCH_CELLS // max(1, db.n_units))
    out = []
    for tvec, rows in groups:
        totals = np.empty(len(rows), dtype=np.int64)
        keep = np.empty(len(rows), dtype=bool)
        values = np.empty((len(specs), len(rows)))
        for a in range(0, len(rows), max_batch):
            block_rows = rows[a:a + max_batch]
            sub_all = db.unit_counts_many(
                [CoverSet(cover_words[r], n_bits) for r in block_rows]
            )
            t, k, v = eval_context_block(
                specs, tvec, sub_all, cfg["minsup_min"]
            )
            b = a + len(block_rows)
            totals[a:b] = t
            keep[a:b] = k
            values[:, a:b] = v
        out.append((rows, totals, keep, values))
    return out


def fill_parallel(
    builder: SegregationDataCubeBuilder,
    db: TransactionDatabase,
    mined: MinedCoordinates,
) -> CellTable:
    """Fill the cube with ``builder.workers`` processes; bit-exact vs
    the columnar engine.

    Shares phase A (candidate enumeration) and phase D (assembly) with
    ``_fill_columnar``; phases B/C run in the worker pool.  With no
    SA-bearing candidates there is nothing to count and no pool is
    spawned; otherwise the pool runs even for one worker, so a
    ``workers=1`` build exercises the genuine multiprocess path.
    """
    specs = builder.indexes
    cand = builder._enumerate_candidates(db, mined)
    n_sa = len(cand.sa_covers)
    minority_totals = np.zeros(n_sa, dtype=np.int64)
    kept_rows = np.zeros(n_sa, dtype=bool)
    values = np.full((len(specs), n_sa), np.nan)
    groups = [
        (mined.context_tvecs[ctx], np.asarray(rows, dtype=np.int64))
        for ctx, rows in cand.rows_by_context().items()
    ]
    if groups:
        partitions = _pool.balanced_partition(
            [len(rows) for _, rows in groups],
            _pool.resolve_workers(builder.workers),
        )
        arrays = {
            "covers": cover_matrix(cand.sa_covers, len(db)),
            "units": np.ascontiguousarray(db.units, dtype=np.int64),
        }
        cfg = {
            "n_bits": len(db),
            "specs": specs,
            "minsup_min": mined.minsup_min,
        }
        for part in _pool.run_pool(
            _fill_partition,
            [[groups[i] for i in part] for part in partitions],
            arrays, cfg, CubeError, "fill",
        ):
            for rows, totals, keep, vals in part:
                minority_totals[rows] = totals
                kept_rows[rows] = keep
                values[:, rows] = vals
    return builder._assemble_cells(
        db, cand, minority_totals, kept_rows, values
    )
