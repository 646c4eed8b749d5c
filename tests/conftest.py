"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cube.table as table_module
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
    """Record the shared-memory segments the fill's process pool creates.

    Returns a check, to call after the pooled work: at least one segment
    was created, and every one of them is unlinked by now.
    """
    from multiprocessing import shared_memory

    from repro.cube import parallel

    created = []
    original = parallel.segment_name

    def tracking():
        created.append(original())
        return created[-1]

    monkeypatch.setattr(parallel, "segment_name", tracking)

    def check():
        assert created, "expected at least one shared-memory segment"
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    return check


#: The file-system calls a store writer makes, each one a crash point.
_WRITER_CALLS = (
    (np, "save"), (os, "replace"), (Path, "unlink"), (os, "fsync"),
)


@pytest.fixture()
def crash_at():
    """Run a store writer, optionally failing one of its file calls.

    ``crash_at(write)`` calls ``write()`` and returns the names of the
    ``np.save``, ``os.replace``, ``Path.unlink`` and ``os.fsync`` calls
    it made, in order: its crash points.  ``crash_at(write, fail=i)``
    makes call ``i`` raise ``OSError`` instead of running, and checks
    that the error reaches the caller.
    """

    def run(write, fail=None):
        calls = []

        def failing(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                if len(calls) - 1 == fail:
                    raise OSError(f"injected failure of {name} call {fail}")
                return real(*args, **kwargs)

            return call

        with pytest.MonkeyPatch.context() as patch:
            for owner, name in _WRITER_CALLS:
                patch.setattr(owner, name, failing(name, getattr(owner, name)))
            if fail is None:
                write()
            else:
                with pytest.raises(OSError, match="injected"):
                    write()
        return calls

    return run


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


@pytest.fixture()
def resave_listed():
    """Rewrite one snapshot array together with its manifest entry.

    ``resave(directory, name, change)`` saves ``change(array)`` over the
    array listed as ``name`` and records its new shape in
    ``manifest.json``, so each file still matches its own entry and only
    checks across arrays (widths, row counts) can catch the change.
    """
    def resave(directory, name, change):
        manifest_path = Path(directory) / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        file = Path(directory) / payload["arrays"][name]["file"]
        array = np.ascontiguousarray(change(np.load(file)))
        np.save(file, array)
        payload["arrays"][name]["shape"] = list(array.shape)
        manifest_path.write_text(json.dumps(payload))

    return resave


@pytest.fixture()
def decoded(monkeypatch):
    """Count the row keys the cell table's one key decoder decodes.

    Returns a list that grows by one with every decoded row.
    """
    calls = []
    decode = table_module.decode_key

    def counting(sa_words, ca_words):
        calls.append(1)
        return decode(sa_words, ca_words)

    monkeypatch.setattr(table_module, "decode_key", counting)
    return calls
