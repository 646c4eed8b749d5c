"""``engine="parallel"``: multiprocess fill, bit-exact vs columnar.

Every parity test asserts zero-tolerance cell identity — the parallel
engine runs the same kernels over the same inputs, so there is nothing
to be "close" about.  Edge cases: one worker (the pool still runs), more
workers than contexts (partitions clamp), closed mode, and restricted
(temporal) databases.

The pool's failure surfaces are here too: a raising worker surfaces as
``CubeError`` and every run, failed or not, unlinks its segments; a
caller killed mid-pool leaves no worker and no segment behind; and a
default build never imports ``multiprocessing`` at all.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cube import parallel as cube_parallel
from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.parallel import balanced_partition, resolve_workers
from repro.data.synthetic import random_final_table
from repro.errors import CubeError
from repro.itemsets.transactions import encode_table

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

LIMITS = {"min_population": 15, "min_minority": 4}


@pytest.fixture(scope="module")
def skewed_table():
    """3000 skewed rows over 12 units with a multi-valued context."""
    return random_final_table(
        3000, 12,
        sa_attributes={"g": 2, "eth": 4},
        ca_attributes={"r": 3, "s": 4},
        multi_valued_ca={"tag": 3},
        seed=3, skew=0.4,
    )


def assert_parallel_matches_columnar(table, schema, workers,
                                     limits=LIMITS, **kwargs):
    columnar = SegregationDataCubeBuilder(
        **limits, **kwargs
    ).build(table, schema)
    parallel = SegregationDataCubeBuilder(
        engine="parallel", workers=workers, **limits, **kwargs
    ).build(table, schema)
    assert check_same_cells(columnar, parallel, atol=0.0) == []
    assert list(parallel.keys()) == list(columnar.keys())
    return parallel


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_parallel_bit_identity(small_final_table, skewed_table, workers,
                               assert_segments_unlinked):
    table, schema = small_final_table
    cube = assert_parallel_matches_columnar(table, schema, workers)
    assert cube.metadata.extra["engine"] == "parallel"
    assert cube.metadata.extra["workers"] == workers
    table, schema = skewed_table
    for mode in ("all", "closed"):
        assert_parallel_matches_columnar(
            table, schema, workers, mode=mode,
            limits={"min_population": 30, "min_minority": 8},
        )
    assert_segments_unlinked()


def test_parallel_on_schools(schools):
    table, schema = schools
    for mode in ("all", "closed"):
        assert_parallel_matches_columnar(
            table, schema, workers=2, mode=mode,
            limits={"min_population": 10, "min_minority": 3},
        )


def test_parallel_more_workers_than_contexts(small_final_table):
    # Clamp max_ca_items so the context lattice is tiny; 16 workers must
    # degrade to one partition per context, not crash or pad.
    table, schema = small_final_table
    assert_parallel_matches_columnar(
        table, schema, workers=16, max_ca_items=1
    )


def test_parallel_closed_mode(small_final_table):
    table, schema = small_final_table
    cube = assert_parallel_matches_columnar(
        table, schema, workers=2, mode="closed"
    )
    assert cube.metadata.mode == "closed"


def test_parallel_on_restricted_database(small_final_table):
    table, schema = small_final_table
    db = encode_table(table, schema)
    active = np.arange(len(db)) % 3 != 0    # drop every third row
    restricted = db.restrict(active)
    columnar = SegregationDataCubeBuilder(
        **LIMITS
    ).build_from_transactions(restricted)
    parallel = SegregationDataCubeBuilder(
        engine="parallel", workers=2, **LIMITS
    ).build_from_transactions(restricted)
    assert check_same_cells(columnar, parallel, atol=0.0) == []


def test_build_cube_passes_workers_through(small_final_table):
    table, schema = small_final_table
    reference = SegregationDataCubeBuilder(**LIMITS).build(table, schema)
    cube = SegregationDataCubeBuilder(engine="parallel", workers=2, **LIMITS).build(table, schema)
    assert check_same_cells(reference, cube, atol=0.0) == []
    assert cube.metadata.extra["workers"] == 2


def test_engine_and_workers_validation():
    with pytest.raises(CubeError):
        SegregationDataCubeBuilder(engine="distributed")
    with pytest.raises(CubeError):
        SegregationDataCubeBuilder(engine="parallel", workers=0)


def test_resolve_workers_defaults_to_cpu_count():
    assert resolve_workers(3) == 3
    assert resolve_workers(None) >= 1


def test_partition_groups_balances_and_clamps():
    # The fill partitions context groups by cell count.
    cells = [10, 1, 1, 1, 7, 2]
    parts = balanced_partition(cells, 3)
    assert len(parts) == 3
    assert all(part for part in parts)
    loads = sorted(sum(cells[i] for i in part) for part in parts)
    assert loads == [5, 7, 10]          # greedy largest-first balance
    # Clamped: never more partitions than groups, never empty ones.
    parts = balanced_partition(cells[:2], 5)
    assert len(parts) == 2
    assert all(part for part in parts)


def _boom(*args, **kwargs):
    raise ValueError("injected worker failure")


def test_worker_failure_raises_cube_error(
    small_final_table, monkeypatch, assert_segments_unlinked
):
    if cube_parallel._mp_context().get_start_method() != "fork":
        pytest.skip("spawned workers do not inherit the injected failure")
    monkeypatch.setattr(cube_parallel, "count_and_eval", _boom)
    with pytest.raises(CubeError, match="injected worker failure"):
        SegregationDataCubeBuilder(
            engine="parallel", workers=2, **LIMITS
        ).build(*small_final_table)
    assert_segments_unlinked()


#: A caller whose pool workers report their pid, then sleep in the
#: fill kernel until killed.
_SLEEPING_CALLER = """
import os, sys, time
from repro.cube import parallel
from repro.cube.builder import SegregationDataCubeBuilder
from repro.data.schools import generate_schools

def sleeping_kernel(*args, **kwargs):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

parallel.count_and_eval = sleeping_kernel
SegregationDataCubeBuilder(
    engine="parallel", workers=2, min_population=10, min_minority=3
).build(*generate_schools())
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _wait_for(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.mark.skipif(
    not (Path("/proc/self/stat").is_file() and Path("/dev/shm").is_dir()),
    reason="probes workers through /proc and segments through /dev/shm",
)
def test_killed_caller_leaves_no_worker_or_segment(tmp_path):
    caller = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_CALLER, str(tmp_path)],
        env=ENV, stderr=subprocess.DEVNULL,
    )
    try:
        assert _wait_for(lambda: len(list(tmp_path.iterdir())) == 2, 30), \
            "the pool workers never reached the kernel"
        workers = [int(p.name) for p in tmp_path.iterdir()]
        segments = list(Path("/dev/shm").glob(f"repro-*-{caller.pid}-*"))
        assert segments
    finally:
        caller.kill()               # SIGKILL: no teardown runs
        caller.wait(timeout=10)
    assert _wait_for(lambda: not any(map(_alive, workers)), 5), \
        "pool workers outlived their killed parent"
    assert _wait_for(lambda: not any(s.exists() for s in segments), 5), \
        "shared-memory segments outlived the killed pool"


def test_default_build_never_imports_multiprocessing():
    script = (
        "import sys, repro\n"
        "from repro.cube.builder import SegregationDataCubeBuilder\n"
        "from repro.data.schools import generate_schools\n"
        "SegregationDataCubeBuilder(min_population=10, min_minority=3)"
        ".build(*generate_schools())\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=ENV, check=True, timeout=120
    )
