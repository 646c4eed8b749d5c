"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.data.italy import ItalyConfig, generate_italy
from repro.data.schools import generate_schools
from repro.data.synthetic import random_final_table
from repro.indexes.counts import UnitCounts


@pytest.fixture(scope="session")
def italy_small():
    """A small synthetic Italian boards dataset (session-cached)."""
    return generate_italy(ItalyConfig(n_companies=400, seed=13))


@pytest.fixture(scope="session")
def schools():
    """The deterministic two-city schools table and schema."""
    return generate_schools()


@pytest.fixture()
def two_unit_counts():
    """Hand-checked counts: t=[10,10], m=[8,2]."""
    return UnitCounts([10, 10], [8, 2])


@pytest.fixture()
def small_final_table():
    """A small random finalTable with single- and multi-valued attributes."""
    return random_final_table(
        300,
        5,
        sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 3},
        multi_valued_ca={"mv": 3},
        seed=42,
    )


@pytest.fixture()
def assert_segments_unlinked(monkeypatch):
    """Record the shared-memory segments the process pool creates.

    Returns a check, to call after the pooled work: at least one segment
    was created, and every one of them is unlinked by now.
    """
    from multiprocessing import shared_memory

    from repro import _pool

    created = []
    original = _pool.segment_name

    def tracking(tag):
        created.append(original(tag))
        return created[-1]

    monkeypatch.setattr(_pool, "segment_name", tracking)

    def check():
        assert created, "expected at least one shared-memory segment"
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    return check


@pytest.fixture()
def mmap_reader():
    """Start reader processes that open a snapshot before it is rewritten.

    ``start(script, *args)`` runs ``python -c script *args``; the script
    must print ``ready`` once its snapshot is open, then block on one
    line of stdin.  ``start`` returns ``finish()``, which sends that
    line and returns the reader's exit code (negative: killed by that
    signal, e.g. -7 for SIGBUS).
    """
    procs = []
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )

    def start(script, *args):
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *map(str, args)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        procs.append(proc)
        assert proc.stdout.readline().strip() == "ready"

        def finish():
            proc.stdin.write("go\n")
            proc.stdin.close()
            return proc.wait(timeout=60)

        return finish

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
