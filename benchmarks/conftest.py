"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures or scenarios,
or measures one layer of the pipeline.  Besides the pytest-benchmark timings, each bench writes
its paper-style table to ``benchmarks/results/<experiment>.txt`` so the
regenerated rows/series can be inspected and diffed after the run, and
(for experiments tracked over time) a machine-readable companion
``benchmarks/results/BENCH_<experiment>.json``: a JSON list with one
record per run, each keyed by git commit and CPU count, so the perf
trajectory can be plotted and regressed on without parsing text tables.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.estonia import EstoniaConfig, generate_estonia
from repro.data.italy import ItalyConfig, generate_italy

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> Path:
    """Persist one experiment's regenerated table and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n[written to {path}]")
    return path


def peak_rss_mb() -> float:
    """Lifetime peak resident set size of this process, in MB.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS.
    """
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return maxrss / divisor


def git_sha(root: Path) -> str:
    """HEAD's commit of ``root``, or ``"unknown"`` outside a git checkout.

    The commit checked out, not the working tree: uncommitted changes
    do not show.  The ceiling keeps git from finding a repository above
    ``root``.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_bench_json(experiment: str, payload: "dict[str, object]") -> Path:
    """Append one run's machine-readable numbers to the experiment's
    history.

    ``experiment`` is the short id (``E18``); the payload becomes one
    record appended to the list in ``results/BENCH_<experiment>.json``
    (a file holding one object, the format before the history, is read
    as the first record).  Each record is keyed by ``git_sha`` and
    ``cpu_count`` and carries environment fields, including the
    process's peak RSS so far, so memory regressions show up in the
    bench trajectory alongside the timings.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{experiment}.json"
    records = json.loads(path.read_text()) if path.is_file() else []
    if isinstance(records, dict):
        records = [records]
    records.append({
        "experiment": experiment,
        "git_sha": git_sha(Path(__file__).resolve().parent.parent),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        **payload,
    })
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"[bench json record appended to {path}]")
    return path


@pytest.fixture(scope="session")
def italy():
    """Benchmark-scale synthetic Italian boards dataset."""
    return generate_italy(ItalyConfig(n_companies=2500, seed=7))


@pytest.fixture(scope="session")
def italy_large():
    """Larger Italy for the scalability sweeps."""
    return generate_italy(ItalyConfig(n_companies=6000, seed=7))


@pytest.fixture(scope="session")
def estonia():
    """Benchmark-scale synthetic Estonian temporal dataset."""
    return generate_estonia(EstoniaConfig(n_companies=2500, seed=11))
