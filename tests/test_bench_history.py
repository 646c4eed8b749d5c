"""Tests of the benchmarks' result history (``BENCH_<experiment>.json``)."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from benchmarks import conftest as bench


def test_write_bench_json_appends_one_record_per_run(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    path = tmp_path / "BENCH_EX.json"
    # The format before the history: one object, read as the first record.
    earlier = {"experiment": "EX", "qps": 1.0}
    path.write_text(json.dumps(earlier))
    for qps in (2.0, 3.0):
        assert bench.write_bench_json("EX", {"qps": qps}) == path
    records = json.loads(path.read_text())
    assert [record["qps"] for record in records] == [1.0, 2.0, 3.0]
    assert records[0] == earlier
    sha = bench.git_sha(Path(bench.__file__).resolve().parent.parent)
    assert sha == "unknown" or re.fullmatch(r"[0-9a-f]{40}", sha)
    for record in records[1:]:
        assert record["experiment"] == "EX"
        assert (record["git_sha"], record["cpu_count"]) == \
            (sha, os.cpu_count())
    assert bench.git_sha(tmp_path) == "unknown"   # not a checkout
