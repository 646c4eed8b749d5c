"""Property-based tests of the incremental engine and its timelines.

Two invariants, driven by hypothesis over random churn and by every
timeline layout:

1. However churn lands, the merged carried+recomputed cube is
   bit-identical (``check_same_cells`` at atol=0) to a from-scratch
   build — in both ``all`` and ``closed`` modes.
2. ``CubeTimeline.at`` parity holds whichever dates a publish writes
   full and whichever it writes as deltas, memory-mapped and in-memory
   alike.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cube.builder import SegregationDataCubeBuilder
from repro.cube.cube import check_same_cells
from repro.cube.incremental import TemporalCubeEngine
from repro.data.synthetic import random_final_table
from repro.itemsets.transactions import encode_table
from repro.store import CubeTimeline, delta_chain_length, dump_into_timeline
from repro.store import timeline as timeline_module

N_ROWS = 800
LIMITS = {"min_population": 15, "min_minority": 4,
          "max_sa_items": 2, "max_ca_items": 2}


@functools.lru_cache(maxsize=1)
def _database():
    table, schema = random_final_table(
        N_ROWS, 8, sa_attributes={"g": 2, "a": 3},
        ca_attributes={"r": 3, "s": 3}, seed=41, skew=0.3,
    )
    return encode_table(table, schema)


def _builder(mode):
    return SegregationDataCubeBuilder(engine="incremental", mode=mode,
                                      **LIMITS)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    mode=st.sampled_from(["all", "closed"]),
    n_steps=st.integers(min_value=1, max_value=3),
)
def test_random_churn_is_bit_exact_vs_scratch(seed, mode, n_steps):
    db = _database()
    rng = np.random.default_rng(seed)
    valid = np.ones(N_ROWS, dtype=bool)
    engine = TemporalCubeEngine(db, _builder(mode))
    state = engine.build_at(valid, 0)
    for step in range(1, n_steps + 1):
        n_flips = int(rng.integers(1, 50))
        flips = rng.choice(N_ROWS, size=n_flips, replace=False)
        valid = valid.copy()
        valid[flips] = ~valid[flips]
        state = engine.update(state, valid, step)
        scratch = SegregationDataCubeBuilder(
            mode=mode, **LIMITS
        ).build_from_transactions(db.restrict(valid))
        assert check_same_cells(state.cube, scratch, atol=0.0) == []
        extra = state.cube.metadata.extra
        assert extra["n_carried_cells"] \
            + extra["n_carried_cells_within_affected"] \
            + extra["n_recomputed_cells"] == len(state.cube)


@functools.lru_cache(maxsize=1)
def _timeline_states():
    db = _database()
    rng = np.random.default_rng(97)
    engine = TemporalCubeEngine(db, _builder("closed"))
    dated = []
    valid = np.ones(N_ROWS, dtype=bool)
    for date in range(4):
        if date:
            flips = rng.choice(N_ROWS, size=25, replace=False)
            valid = valid.copy()
            valid[flips] = ~valid[flips]
        dated.append((date, valid))
    return engine.run(dated)


#: Which of dates 1-3 a publish writes full: all 8 timeline layouts,
#: from the all-delta chain to a checkpoint at every date.
FULL_DATE_SETS = [
    set(full) for n in range(4)
    for full in itertools.combinations((1, 2, 3), n)
]


def test_timeline_parity_survives_any_compaction_order(tmp_path,
                                                       monkeypatch):
    # The publish rule is steered per date: MAX_CHAIN 0 forces a full
    # date, an unreachable MAX_CHAIN and MIN_BYTE_RATIO force a delta.
    states = _timeline_states()
    monkeypatch.setattr(timeline_module, "MIN_BYTE_RATIO", math.inf)
    for layout, full_dates in enumerate(FULL_DATE_SETS):
        root = tmp_path / f"timeline{layout}"
        chains = []
        previous = None
        for state in states:
            full = state.date in full_dates
            monkeypatch.setattr(timeline_module, "MAX_CHAIN",
                                0 if full else math.inf)
            dump_into_timeline(
                root, state.date, state.cube,
                parent_date=None if previous is None else previous.date,
                parent=None if previous is None else previous.cube,
            )
            chains.append(0 if previous is None or full else chains[-1] + 1)
            previous = state
        assert [
            delta_chain_length(root / str(state.date)) for state in states
        ] == chains, full_dates
        for mmap in (True, False):
            timeline = CubeTimeline(root, mmap=mmap)
            for state in states:
                assert check_same_cells(
                    state.cube, timeline.at(state.date), atol=0.0
                ) == [], full_dates
