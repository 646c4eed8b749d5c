"""E10 — "Computational efficiency challenges and solutions" (paper §1/§3).

Compares the itemset-driven SegregationDataCubeBuilder against the naive
full-enumeration baseline in ``tests/oracles.py``, sweeping (a) the
number of rows and (b) the number of context attributes (i.e. the size
of the coordinate lattice).

Expected shape: the two builders produce identical cubes (asserted), the
naive baseline degrades super-linearly with attribute count while the
mining-pruned builder's cost follows the number of *frequent* itemsets —
the gap widens with every added attribute.
"""

from __future__ import annotations

import time

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.data.synthetic import random_final_table
from repro.report.text import render_table

from benchmarks.conftest import write_result
from tests.oracles import NaiveCubeBuilder

# Three-deep context coordinates: the lattice of candidate contexts grows
# cubically in the item count, which is the regime the paper's mining
# approach targets (enumeration pays a cover scan for every candidate,
# mining only for frequent ones).  A single cheap index (D) keeps the
# holistic cell evaluation — identical in both builders — from masking
# the lattice-exploration cost under measurement.
LIMITS = dict(indexes=["D"], min_population=0.03, min_minority=0.01,
              max_sa_items=2, max_ca_items=3)


def _time_once(builder, table, schema):
    start = time.perf_counter()
    cube = builder.build(table, schema)
    return time.perf_counter() - start, cube


def _one_row(label, table, schema):
    smart_s, smart = _time_once(
        SegregationDataCubeBuilder(**LIMITS), table, schema
    )
    naive_s, naive = _time_once(NaiveCubeBuilder(**LIMITS), table, schema)
    assert check_same_cells(smart, naive) == []
    mined = smart.metadata.extra["n_mined_itemsets"]
    candidates = naive.metadata.extra["n_candidates"]
    return [label, len(smart), mined, candidates, smart_s, naive_s,
            naive_s / smart_s]


def _sweep():
    rows = []
    # (a) growing rows, fixed attributes (skewed values, as in real data)
    for n_rows in (1000, 4000, 16000):
        table, schema = random_final_table(
            n_rows, 12,
            sa_attributes={"g": 2, "a": 5},
            ca_attributes={"r": 8, "s": 10, "t": 8},
            seed=3,
            skew=0.8,
        )
        rows.append(_one_row(f"rows={n_rows}, items=33", table, schema))
    # (b) growing attribute count, fixed rows
    for n_ca, cardinality in ((2, 8), (4, 8), (6, 8), (8, 8)):
        ca = {f"c{k}": cardinality for k in range(n_ca)}
        table, schema = random_final_table(
            8000, 12, sa_attributes={"g": 2, "a": 5}, ca_attributes=ca,
            seed=4,
            skew=0.8,
        )
        n_items = 7 + n_ca * cardinality
        rows.append(_one_row(f"rows=8000, items={n_items}", table, schema))
    return rows


def test_builder_vs_naive_scalability(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rendered = render_table(
        ["workload", "cells", "frequent", "candidates",
         "itemset builder (s)", "naive (s)", "speedup"],
        rows,
    )
    write_result(
        "E10_builder_scalability",
        "Cube materialisation: itemset-driven builder vs full "
        "enumeration\n(minsup_pop=3%, minsup_minority=1%, caps 2 SA x 3 "
        "CA, index D)\n" + rendered,
    )
    # The efficiency claim: mining touches a fraction of the candidate
    # lattice, and the gap widens with the attribute count.
    attr_rows = rows[3:]
    assert attr_rows[-1][3] > 5 * attr_rows[-1][2], (
        "candidate lattice must dwarf the frequent set"
    )
    assert attr_rows[-1][6] > attr_rows[0][6], "speedup must grow with items"
    assert attr_rows[-1][6] > 1.5, "itemset builder must beat enumeration"
