"""The shared-memory process pool (``repro._pool``): its failure surfaces.

Every pool caller must surface a raising worker as its own library
error and unlink its segments; a caller killed mid-pool must leave no
worker and no segment behind; and a default build must never import
``multiprocessing`` at all.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import _pool
from repro.cube import parallel as cube_parallel
from repro.cube.builder import SegregationDataCubeBuilder
from repro.errors import CubeError, MiningError
from repro.itemsets import eclat
from repro.itemsets.closed import mine_closed
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.transactions import encode_table

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

#: Pool caller -> (module, worker kernel to break, expected error, run).
CALLERS = {
    "fill": (
        cube_parallel, "eval_context_block", CubeError,
        lambda table, schema: SegregationDataCubeBuilder(
            engine="parallel", workers=2,
            min_population=15, min_minority=4,
        ).build(table, schema),
    ),
    "mine_eclat": (
        eclat, "mine_root", MiningError,
        lambda table, schema: mine_eclat(
            encode_table(table, schema), 20, workers=2
        ),
    ),
    "mine_closed": (
        eclat, "mine_root", MiningError,
        lambda table, schema: mine_closed(
            encode_table(table, schema), 20, workers=2
        ),
    ),
}


def _boom(*args, **kwargs):
    raise ValueError("injected worker failure")


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_worker_failure_raises_library_error(
    caller, small_final_table, monkeypatch, assert_segments_unlinked
):
    if _pool._mp_context().get_start_method() != "fork":
        pytest.skip("spawned workers do not inherit the injected failure")
    module, kernel, error, run = CALLERS[caller]
    monkeypatch.setattr(module, kernel, _boom)
    with pytest.raises(error, match="injected worker failure"):
        run(*small_final_table)
    assert_segments_unlinked()


#: A caller whose pool workers report their pid, then sleep in the
#: kernel until killed.
_SLEEPING_CALLER = """
import os, sys, time
from repro.itemsets import eclat
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.transactions import TransactionDatabase

def sleeping_kernel(*args, **kwargs):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

eclat.mine_root = sleeping_kernel
dictionary = ItemDictionary()
for i in range(4):
    dictionary.add(Item("x", i), ItemKind.SA)
mine_eclat(TransactionDatabase([(0, 1, 2, 3)] * 8, dictionary), 2,
           workers=2)
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
        "from repro.cube.builder import build_cube\n"
        "from repro.data.schools import generate_schools\n"
        "build_cube(*generate_schools(), min_population=10,"
        " min_minority=3)\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=ENV, check=True, timeout=120
    )
