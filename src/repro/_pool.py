"""The one shared-memory process pool behind every ``workers=`` path.

Two paths fan work out across processes, and both go through
:func:`run_pool`: the cube's ``engine="parallel"`` fill
(:mod:`repro.cube.parallel`) and ``workers=`` on the standalone
``mine_eclat`` / ``mine_closed`` (:mod:`repro.itemsets.parallel`).  This
module owns everything they share:

* worker-count resolution (:func:`resolve_workers`) and the greedy
  largest-first partition of the work (:func:`balanced_partition`);
* the start method: workers are forked when the platform supports it
  (cheap, and they inherit runtime state such as custom registered
  indexes) and spawned otherwise;
* the segment lifecycle: the caller's arrays are copied **once** into
  named :mod:`multiprocessing.shared_memory` segments which workers map
  read-only instead of receiving pickled copies.  Worker views live only
  inside the task call, workers close their attachments in ``finally``,
  and the parent's ``close()`` + ``unlink()`` in ``finally`` is the
  single cleanup point on success *and* failure;
* failure surfacing: a raising worker re-raises in the parent as the
  caller's library error once every task has finished and the pool has
  shut down;
* parent death: every worker runs a daemon thread that exits the worker
  as soon as its parent is gone (it gets re-parented), so a killed
  caller leaves no orphaned workers behind — and, once they are gone,
  the stdlib resource tracker unlinks the caller's segments.

The package imports this module lazily, from inside the ``workers=``
branches only, so a default build never imports :mod:`multiprocessing`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections.abc import Callable
from itertools import count
from multiprocessing import shared_memory

import numpy as np

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


def segment_name(tag: str) -> str:
    """A fresh, recognisably-ours shared-memory segment name.

    Naming every segment explicitly (rather than letting the stdlib
    pick) lets tests probe by name that no segment outlives its pool.
    """
    return f"repro-{tag}-{os.getpid()}-{next(_SEGMENT_SEQ)}"


def _mp_context():
    """Fork when the platform has it, else spawn (see the module notes)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_pool(
    task: "Callable[[object, dict, dict], object]",
    chunks: list,
    arrays: "dict[str, np.ndarray]",
    cfg: dict,
    error: "type[Exception]",
    tag: str,
) -> list:
    """Run ``task(chunk, cfg, views)`` for every chunk, one worker each.

    ``arrays`` maps names to the NumPy arrays the workers share; it is
    emptied as the arrays are copied into their segments, so the
    caller's private copies can be freed before the workers start.
    ``views`` maps the same names to read-only views of the segments,
    valid only during the call: a task must not return them.  Returns
    the task results in completion order.  A worker exception
    re-raises as ``error`` (the caller's library error class) after
    the remaining tasks have finished.
    """
    segments: "list[shared_memory.SharedMemory]" = []
    specs: "dict[str, tuple]" = {}
    try:
        for name in list(arrays):
            array = arrays.pop(name)
            segment = shared_memory.SharedMemory(
                create=True, name=segment_name(tag),
                size=max(1, array.nbytes),
            )
            segments.append(segment)
            # The temporary viewing the buffer dies with the statement,
            # leaving the segment export-free for close()/unlink().
            np.ndarray(array.shape, array.dtype, buffer=segment.buf)[:] = \
                array
            specs[name] = (segment.name, array.shape, array.dtype.str)
            del array
        pool = _mp_context().Pool(
            processes=len(chunks),
            initializer=_init_worker,
            initargs=(os.getpid(), task, cfg, specs),
        )
        results, failures = [], []
        try:
            outputs = pool.imap_unordered(_run_task, chunks)
            for _ in chunks:
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
            if isinstance(failures[0], error):
                raise failures[0]
            raise error(
                f"parallel {tag} worker failed: {failures[0]!r}"
            ) from failures[0]
        return results
    finally:
        for segment in segments:
            segment.close()
            segment.unlink()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-worker ``(task, cfg, specs)``, set once by the pool initializer.
_WORKER: "tuple | None" = None


def _init_worker(parent_pid: int, task, cfg: dict, specs: dict) -> None:
    global _WORKER
    _WORKER = (task, cfg, specs)
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


def _run_task(chunk):
    """Pool task: attach the shared segments and run the caller's task."""
    task, cfg, specs = _WORKER
    # Attaching re-registers a segment with the resource tracker; pool
    # workers share the parent's tracker, whose cache has set semantics,
    # so the parent's unlink() stays the single point of cleanup.
    attached = {
        name: shared_memory.SharedMemory(name=spec[0])
        for name, spec in specs.items()
    }
    try:
        return task(chunk, cfg, {
            name: np.ndarray(shape, dtype, buffer=attached[name].buf)
            for name, (_, shape, dtype) in specs.items()
        })
    finally:
        for segment in attached.values():
            segment.close()
