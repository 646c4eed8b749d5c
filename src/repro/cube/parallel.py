"""Multiprocess columnar fill: ``engine="parallel"``.

This is the package's only multiprocess code.  The columnar fill's
phases B/C — per-unit counting plus batched index kernels — are
embarrassingly parallel across *context groups*: every candidate cell of
a context needs only that context's items and population vector and its
own SA items.  This module partitions the context groups across a pool
of worker processes:

* three arrays are shared **once** with every worker instead of being
  pickled per task: the database's unit-ordered item words and unit
  boundaries
  (:meth:`~repro.itemsets.transactions.TransactionDatabase.unit_words`)
  and the SA-bearing candidates' padded SA item-index rows
  (:meth:`~repro.itemsets.transactions.TransactionDatabase.item_index_rows`)
  — a few hundred KB, where the candidates' own covers would be tens
  of MB;
* each task carries its context groups, ``(context, tvec, rows)``: the
  context's CA item ids, its population vector and its cells' rows;
* context groups are partitioned greedy largest-first by cell count, so
  one popular context cannot serialise the fill behind it;
* each worker runs the single-process engine's own loop,
  :func:`~repro.cube.builder.count_and_eval`, over its contexts: the
  same ``_FILL_BATCH_CELLS``-bounded batches, each counted on its
  contexts by :func:`~repro.itemsets.transactions.count_on_contexts`
  (a worker ANDs each of its contexts' items once, then each cell's SA
  items on top) and evaluated with
  :func:`~repro.cube.builder.eval_context_block`;
* the parent hands the returned slabs to the same phase D as
  ``engine="columnar"``, which scatters them into the candidate arrays
  and assembles one :class:`~repro.cube.table.CellTable`.

Because every number is produced by the very same code on the very same
inputs, and the kernels are row-independent (a worker's batches may cut
the groups elsewhere), the parallel cube is **bit-exact** (``atol=0``)
against the columnar one — ``tests/test_cube_parallel.py`` asserts this
on every dataset it builds, in both modes.

The pool itself:

* workers are forked when the platform supports it (cheap, and they
  inherit runtime state such as custom registered indexes) and spawned
  otherwise;
* the shared arrays live in named :mod:`multiprocessing.shared_memory`
  segments which workers map read-only.  Worker views live only inside
  the task call, workers close their attachments in ``finally``, and the
  parent's ``close()`` + ``unlink()`` in ``finally`` is the single
  cleanup point on success *and* failure;
* a raising worker re-raises in the parent as
  :class:`~repro.errors.CubeError` once every task has finished and the
  pool has shut down;
* every worker runs a daemon thread that exits the worker as soon as its
  parent is gone (it gets re-parented), so a killed caller leaves no
  orphaned workers behind — and, once they are gone, the stdlib
  resource tracker unlinks the caller's segments.

The builder imports this module lazily, only for ``engine="parallel"``,
so a default build never imports :mod:`multiprocessing`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from itertools import count
from multiprocessing import shared_memory

import numpy as np

from repro.cube.builder import (
    MinedCoordinates,
    SegregationDataCubeBuilder,
    count_and_eval,
)
from repro.cube.table import CellTable
from repro.errors import CubeError
from repro.itemsets.transactions import TransactionDatabase

#: How often a worker checks that its parent is still alive, in seconds.
_PARENT_POLL_S = 0.1

_SEGMENT_SEQ = count()


def resolve_workers(workers: "int | None") -> int:
    """Effective worker count: ``workers`` or one per CPU, at least 1."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    return max(1, int(workers))


def balanced_partition(
    costs: "list[int]", n_parts: int
) -> "list[list[int]]":
    """Greedy balanced partition of positions ``0..len(costs)-1`` by cost.

    Positions go largest-cost-first onto the least-loaded partition, so
    one heavy item cannot serialise the pool behind it.  ``n_parts`` is
    clamped to the number of positions, so no partition is ever empty;
    each keeps its positions in ascending order.
    """
    n_parts = max(1, min(n_parts, len(costs)))
    parts: "list[list[int]]" = [[] for _ in range(n_parts)]
    loads = [0] * n_parts
    for pos in sorted(range(len(costs)), key=lambda p: -costs[p]):
        j = loads.index(min(loads))
        parts[j].append(pos)
        loads[j] += costs[pos]
    for part in parts:
        part.sort()
    return parts


def segment_name() -> str:
    """A fresh, recognisably-ours shared-memory segment name.

    Naming every segment explicitly (rather than letting the stdlib
    pick) lets tests probe by name that no segment outlives its pool.
    """
    return f"repro-fill-{os.getpid()}-{next(_SEGMENT_SEQ)}"


def _mp_context():
    """Fork when the platform has it, else spawn (see the module notes)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def fill_parallel(
    builder: SegregationDataCubeBuilder,
    db: TransactionDatabase,
    mined: MinedCoordinates,
) -> CellTable:
    """Fill the cube with ``builder.workers`` processes; bit-exact vs
    the columnar engine.

    Shares phase A (candidate enumeration), phases B/C
    (:func:`~repro.cube.builder.count_and_eval`, run by each worker over
    its partition) and phase D (assembly) with ``_fill_columnar``.  With
    no SA-bearing candidates there is nothing to count and no pool is
    spawned; otherwise the pool runs even for one worker, so a
    ``workers=1`` build exercises the genuine multiprocess path.
    """
    cand = builder._enumerate_candidates(db, mined)
    counted = []
    if cand.groups:
        partitions = balanced_partition(
            [len(rows) for _, _, rows in cand.groups],
            resolve_workers(builder.workers),
        )
        words, bounds = db.unit_words()
        arrays = {
            "words": words,
            "bounds": bounds,
            "index_rows": cand.index_rows,
        }
        counted = _run_pool(
            [[cand.groups[i] for i in part] for part in partitions],
            arrays, builder.indexes, mined.minsup_min,
        )
    return builder._assemble_cells(db, cand, counted)


def _run_pool(
    partitions: list,
    arrays: "dict[str, np.ndarray]",
    specs: list,
    minsup_min: int,
) -> list:
    """Run :func:`count_and_eval` over every partition, one worker each.

    ``arrays`` maps names to the NumPy arrays the workers share; it is
    emptied as the arrays are copied into their segments, so the
    caller's private copies can be freed before the workers start.
    Returns the partition results in completion order.  A worker
    exception re-raises as :class:`~repro.errors.CubeError` after the
    remaining partitions have finished.
    """
    segments: "list[shared_memory.SharedMemory]" = []
    layout: "dict[str, tuple]" = {}
    try:
        for name in list(arrays):
            array = arrays.pop(name)
            segment = shared_memory.SharedMemory(
                create=True, name=segment_name(), size=max(1, array.nbytes),
            )
            segments.append(segment)
            # The temporary viewing the buffer dies with the statement,
            # leaving the segment export-free for close()/unlink().
            np.ndarray(array.shape, array.dtype, buffer=segment.buf)[:] = \
                array
            layout[name] = (segment.name, array.shape, array.dtype.str)
            del array
        pool = _mp_context().Pool(
            processes=len(partitions),
            initializer=_init_worker,
            initargs=(os.getpid(), specs, minsup_min, layout),
        )
        results, failures = [], []
        try:
            outputs = pool.imap_unordered(_fill_task, partitions)
            for _ in partitions:
                try:
                    results.append(next(outputs))
                except Exception as exc:    # raised by a worker's task
                    failures.append(exc)
        except BaseException:
            pool.terminate()
            raise
        # Every task has finished, so a graceful shutdown cannot block.
        # Terminating instead could kill a worker that still holds a
        # result-queue lock and deadlock the pool's own teardown.
        pool.close()
        pool.join()
        if failures:
            if isinstance(failures[0], CubeError):
                raise failures[0]
            raise CubeError(
                f"parallel fill worker failed: {failures[0]!r}"
            ) from failures[0]
        return results
    finally:
        for segment in segments:
            segment.close()
            segment.unlink()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-worker ``(specs, minsup_min, layout)``, set once by the pool
#: initializer.
_WORKER: "tuple | None" = None


def _init_worker(
    parent_pid: int, specs: list, minsup_min: int, layout: dict
) -> None:
    global _WORKER
    _WORKER = (specs, minsup_min, layout)
    threading.Thread(
        target=_exit_with_parent, args=(parent_pid,), daemon=True
    ).start()


def _exit_with_parent(parent_pid: int) -> None:
    """Exit this worker once its parent has died (it gets re-parented).

    A killed parent never reaches its pool teardown; without this, the
    workers would keep computing under init and keep the resource
    tracker — and with it the parent's segments — alive.
    """
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _fill_task(partition: list) -> tuple:
    """Pool task: attach the shared segments and fill one partition."""
    specs, minsup_min, layout = _WORKER
    # Attaching re-registers a segment with the resource tracker; pool
    # workers share the parent's tracker, whose cache has set semantics,
    # so the parent's unlink() stays the single point of cleanup.
    attached = {
        name: shared_memory.SharedMemory(name=spec[0])
        for name, spec in layout.items()
    }
    try:
        arrays = {
            name: np.ndarray(shape, dtype, buffer=attached[name].buf)
            for name, (_, shape, dtype) in layout.items()
        }
        return count_and_eval(
            partition, arrays["words"], arrays["bounds"],
            arrays["index_rows"], specs, minsup_min,
        )
    finally:
        for segment in attached.values():
            segment.close()
