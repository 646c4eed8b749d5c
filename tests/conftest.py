"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cube.table as table_module
from repro.data.italy import ItalyConfig, generate_italy
from repro.data.schools import generate_schools
from repro.etl.schema import Schema
from repro.etl.table import CategoricalColumn
from repro.indexes.counts import UnitCounts
from tests.datafile import relayout


@pytest.fixture(scope="session")
def italy_small():
    """A small synthetic Italian boards dataset (session-cached)."""
    return generate_italy(ItalyConfig(n_companies=400, seed=13))


@pytest.fixture(scope="session")
def schools():
    """The deterministic two-city schools table and schema."""
    return generate_schools()


@pytest.fixture(scope="session")
def schools_with_tracking(schools):
    """The schools table plus an SA column that tracks ``sex``.

    ``{sex=F}`` always comes with ``{uniform=skirt}``, so a closed-mode
    cube materialises only the closed one of each such pair, and its
    resolver answers the others.
    """
    table, _ = schools
    uniform = ["skirt" if sex == "F" else "trousers"
               for sex in table.categorical("sex").values()]
    table = table.with_column("uniform", CategoricalColumn.from_values(uniform))
    schema = Schema.build(
        segregation=["ethnicity", "sex", "uniform"],
        context=["city"],
        unit="school",
    )
    return table, schema


@pytest.fixture()
def two_unit_counts():
    """Hand-checked counts: t=[10,10], m=[8,2]."""
    return UnitCounts([10, 10], [8, 2])


#: The file-system calls a store writer makes, each one a crash point.
_WRITER_CALLS = (
    (os, "open"), (os, "writev"), (os, "replace"), (Path, "unlink"),
    (os, "fsync"),
)


@pytest.fixture()
def crash_at():
    """Run a store writer, optionally failing one of its file calls.

    ``crash_at(write)`` calls ``write()`` and returns the names of the
    ``os.open``, ``os.writev``, ``os.replace``, ``Path.unlink`` and
    ``os.fsync`` calls it made, in order: its crash points.
    ``crash_at(write, fail=i)`` makes call ``i`` raise ``OSError``
    instead of running, and checks that the error reaches the caller.
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

    ``resave(directory, name, change)`` rewrites the data file with
    ``change(array)`` as the array listed as ``name`` and records every
    new entry and the file's size in ``manifest.json``, so the file
    still matches its manifest and only checks across arrays (widths,
    row counts) can catch the change.
    """
    def resave(directory, name, change):
        relayout(directory, name, change, record=True)

    return resave


#: The paths opened while an ``opened_files`` fixture is active.
_OPENED: "list[str] | None" = None


def _record_open(event, args):
    if event == "open" and _OPENED is not None and isinstance(
        args[0], (str, bytes, os.PathLike)
    ):
        _OPENED.append(os.fsdecode(args[0]))


@pytest.fixture()
def opened_files():
    """Every file the process opens while the test runs, in order.

    Counts opens at the ``open`` audit event, so ``builtins.open``,
    ``os.open`` and ``np.memmap`` of a path all show.  The hook is
    added on first use and stays (audit hooks cannot be removed); it
    records nothing outside this fixture.
    """
    global _OPENED
    if not getattr(_record_open, "added", False):
        sys.addaudithook(_record_open)
        _record_open.added = True
    _OPENED = []
    yield _OPENED
    _OPENED = None


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
