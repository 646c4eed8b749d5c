"""Multiprocess columnar fill: ``engine="parallel"``.

The columnar fill's phases B/C — per-unit counting plus batched index
kernels — are embarrassingly parallel across *context groups*: every
candidate cell of a context needs only that context's population vector
and its own minority itemset.  This module partitions the context
groups across the package's one shared-memory pool (:mod:`repro._pool`):

* three arrays are shared **once** with every worker instead of being
  pickled per task: the database's unit-ordered item words and unit
  boundaries
  (:meth:`~repro.itemsets.transactions.TransactionDatabase.unit_words`)
  and the SA-bearing candidates' padded item-index rows
  (:meth:`~repro.itemsets.transactions.TransactionDatabase.item_index_rows`)
  — a few hundred KB, where the candidates' own covers would be tens
  of MB;
* context groups are partitioned greedy largest-first by cell count, so
  one popular context cannot serialise the fill behind it;
* each worker runs the exact kernels of the single-process engine
  (:func:`~repro.itemsets.transactions.count_unit_bits` plus the shared
  :func:`~repro.cube.builder.eval_context_block`) over its contexts, in
  the same ``_FILL_BATCH_CELLS``-bounded batches;
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
from repro.itemsets.transactions import TransactionDatabase, count_unit_bits


def _fill_partition(groups: list, cfg: dict, arrays: dict) -> list:
    """Pool task: phases B/C over one partition's context groups.

    Each group is ``(tvec, rows)``: the context's per-unit population
    vector and the index rows of its candidate cells.  Returns
    ``[(rows, totals, keep, values), ...]`` — arrays owned by the
    worker, safe to pickle back.
    """
    words, bounds = arrays["words"], arrays["bounds"]
    index_rows = arrays["index_rows"]
    specs = cfg["specs"]
    max_batch = max(1, _FILL_BATCH_CELLS // max(1, len(bounds) - 1))
    out = []
    for tvec, rows in groups:
        totals = np.empty(len(rows), dtype=np.int64)
        keep = np.empty(len(rows), dtype=bool)
        values = np.empty((len(specs), len(rows)))
        for a in range(0, len(rows), max_batch):
            block_rows = rows[a:a + max_batch]
            sub_all = count_unit_bits(words, bounds, index_rows[block_rows])
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
    n_sa = len(cand.sa_itemsets)
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
        words, bounds = db.unit_words()
        arrays = {
            "words": words,
            "bounds": bounds,
            "index_rows": db.item_index_rows(cand.sa_itemsets),
        }
        cfg = {"specs": specs, "minsup_min": mined.minsup_min}
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
