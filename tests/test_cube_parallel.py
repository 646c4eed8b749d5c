"""``engine="parallel"``: multiprocess fill, bit-exact vs columnar.

Every test asserts zero-tolerance cell identity — the parallel engine
runs the same kernels over the same inputs, so there is nothing to be
"close" about.  Edge cases: one worker (the pool still runs), more
workers than contexts (partitions clamp), closed mode, and restricted
(temporal) databases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._pool import balanced_partition, resolve_workers
from repro.cube.builder import SegregationDataCubeBuilder, build_cube
from repro.cube.cube import check_same_cells
from repro.data.synthetic import random_final_table
from repro.errors import CubeError
from repro.itemsets.transactions import encode_table

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
def test_parallel_bit_identity(small_final_table, skewed_table, workers):
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
    reference = build_cube(table, schema, **LIMITS)
    cube = build_cube(
        table, schema, engine="parallel", workers=2, **LIMITS
    )
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
