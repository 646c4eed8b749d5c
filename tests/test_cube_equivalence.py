"""The central correctness property: itemset-driven builder == naive oracle.

Random finalTables (with single- and multi-valued attributes) are pushed
through both builders under identical thresholds; the cubes must agree
cell-for-cell on counts and on every index value.  The closed-mode cube
must answer every all-mode cell identically through its lazy resolver.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.data.synthetic import random_final_table
from repro.itemsets.miner import mine
from repro.itemsets.transactions import encode_table

from tests.oracles import NaiveCubeBuilder, mine_fpgrowth


@st.composite
def table_configs(draw):
    return {
        "n_rows": draw(st.integers(30, 200)),
        "n_units": draw(st.integers(1, 6)),
        "sa_attributes": {"g": draw(st.integers(2, 3)),
                          "a": draw(st.integers(2, 3))},
        "ca_attributes": {"r": draw(st.integers(2, 3))},
        "multi_valued_ca": (
            {"mv": draw(st.integers(2, 3))} if draw(st.booleans()) else {}
        ),
        "seed": draw(st.integers(0, 10_000)),
    }


@st.composite
def thresholds(draw):
    return {
        "min_population": draw(st.integers(1, 30)),
        "min_minority": draw(st.integers(1, 10)),
        "max_sa_items": draw(st.sampled_from([1, 2, None])),
        "max_ca_items": draw(st.sampled_from([1, 2, None])),
    }


@given(table_configs(), thresholds())
@settings(max_examples=25, deadline=None)
def test_builder_equals_naive_oracle(config, limits):
    table, schema = random_final_table(**config)
    smart = SegregationDataCubeBuilder(**limits).build(table, schema)
    naive = NaiveCubeBuilder(**limits).build(table, schema)
    problems = check_same_cells(smart, naive)
    assert problems == [], problems[:10]


@given(table_configs())
@settings(max_examples=15, deadline=None)
def test_closed_mode_answers_all_mode_queries(config):
    table, schema = random_final_table(**config)
    limits = {"min_population": 5, "min_minority": 2,
              "max_sa_items": 2, "max_ca_items": 2}
    full = SegregationDataCubeBuilder(mode="all", **limits).build(table, schema)
    closed = SegregationDataCubeBuilder(mode="closed", **limits).build(
        table, schema
    )
    assert len(closed) <= len(full)
    for key in full.keys():
        a = full.cell_by_key(key)
        b = closed.cell_by_key(key)       # materialised or lazily resolved
        assert b is not None, closed.describe(key)
        assert (a.population, a.minority, a.n_units) == (
            b.population, b.minority, b.n_units
        )
        for name in full.metadata.index_names:
            va, vb = a.value(name), b.value(name)
            # Exact: the resolver runs the fill's kernels (NaN == NaN).
            assert va == vb or (math.isnan(va) and math.isnan(vb)), (
                closed.describe(key), name, va, vb
            )


@given(table_configs())
@settings(max_examples=10, deadline=None)
def test_backends_equivalent_through_facade(config):
    """The facade's eclat mine agrees with the FP-growth oracle."""
    table, schema = random_final_table(**config)
    db = encode_table(table, schema)
    assert mine(db, 3).supports == mine_fpgrowth(db, 3)
