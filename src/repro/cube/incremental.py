"""Incremental temporal cube fills: re-evaluate only what changed.

A timeline of snapshot dates (paper §3; the Estonian case study spans
20 years) re-pays the full ETL → mining → fill cost at every date when
each snapshot is built from scratch.  This module applies incremental
view maintenance to the columnar cube instead:

1. the *union* table (one row per membership edge, whatever its
   validity) is encoded into one :class:`TransactionDatabase`; a date
   is a boolean row mask over it
   (:meth:`~repro.itemsets.transactions.TransactionDatabase.restrict`),
   so the covers of two dates index the same rows and are directly
   comparable;
2. between two dates only the rows in ``valid_old XOR valid_new``
   changed: one XOR of the two dates' live-row covers (their sizes
   must agree), and an item is *affected* when its cover meets that
   XOR.  A context whose union cover misses every changed row has a
   bit-identical cover — hence bit-identical per-unit counts, cell set
   and index values — at both dates, so its cube rows are **carried
   over verbatim** from the previous :class:`~repro.cube.table.CellTable`;
3. inside the remaining *affected* contexts, the carry argument applies
   **per cell**: a candidate coordinate whose static union cover misses
   every changed row has an unchanged minority vector, and when the
   context's population vector is also bit-identical (compared by
   blake2b digest) the whole cube row is carried verbatim from the
   parent table — only genuinely changed cells re-enter the columnar
   fill (the recomputed contexts are counted through
   :meth:`~repro.cube.builder.MinedCoordinates.of_contexts`, as a full
   build counts its contexts).  The provenance records the
   split as ``n_carried_cells`` (whole contexts),
   ``n_carried_cells_within_affected`` and ``n_recomputed_cells``;
4. ``mode="closed"`` rides the same machinery through a *closure diff*:
   capped closedness of a coordinate is a function of its cover and the
   static item covers only (:mod:`repro.itemsets.closed`), so flags are
   re-derived only for candidates whose ``cover_digest`` changed under
   the new row mask — every other flag is reused from the previous
   date.  The result is bit-exact (``check_same_cells`` at ``atol=0``)
   with a from-scratch closed build at every date.

The correctness argument for carrying a context ``B`` forward: a cell
``(A, B)`` has cover ``cover(A∪B) ⊆ cover(B)``; if ``cover(B)`` (on the
union rows) misses every changed row, so does every subset, so every
cell's support, per-unit minority vector and context population vector
are unchanged — and the index kernels are deterministic functions of
those integers.  In closed mode the same inclusion freezes every
closedness flag of the context's candidates (their covers are
digest-identical).  Conversely a context that became frequent must have
gained rows, so its union cover touches an added (changed) row and all
its items appear on that row — which is why mining only over
*affected items* finds every context that needs recomputation.

Fractional thresholds resolve against the live row count, which moves
with the date; if either resolved threshold differs from the previous
date's, carried cells are no longer guaranteed valid and the engine
transparently falls back to a full (columnar) build for that date.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cube.builder import (
    MinedCoordinates,
    SegregationDataCubeBuilder,
    _LazyResolver,
)
from repro.cube.coordinates import CellKey
from repro.cube.cube import CubeMetadata, SegregationCube
from repro.cube.table import CellTable
from repro.errors import CubeError
from repro.itemsets.closed import closure_diff
from repro.itemsets.coverset import Cover, as_cover
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.miner import absolute_minsup
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]

#: Closure memo: candidate itemset -> (cover digest, capped-closed flag).
ClosedInfo = "dict[Itemset, tuple[bytes, bool]]"


def _tvec_digest(tvec: np.ndarray) -> bytes:
    """16-byte blake2b of a context's per-unit population vector."""
    data = np.ascontiguousarray(tvec, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


@dataclass(frozen=True)
class TemporalBuildState:
    """Everything one dated build hands to the next incremental step."""

    #: Snapshot date this state describes (None for undated builds).
    date: "int | None"
    #: Valid-row cover over the union database at this date.
    active: Cover
    #: Frequent contexts (CA itemsets, root included) at this date.
    contexts: "frozenset[Itemset]"
    #: The cube at this date (live, resolver-backed).
    cube: SegregationCube
    #: The union database restricted to this date.
    db: TransactionDatabase
    #: Thresholds as resolved at this date (guard the carry-over).
    minsup_pop: int
    minsup_min: int
    #: Context -> blake2b digest of its population vector; equality
    #: against the next date's digest is what licenses carrying a cell
    #: of an affected context verbatim.
    context_digests: "dict[Itemset, bytes]" = field(default_factory=dict)
    #: Closed mode only: context -> closure memo of its candidates
    #: (closed *and* non-closed — digests gate reuse).  None in ``all``
    #: mode.
    closed_info: "dict[Itemset, ClosedInfo] | None" = None


class TemporalCubeEngine:
    """Drives a dated sequence of cubes over one union database.

    Parameters
    ----------
    db:
        The *union* transaction database: every row of the temporal
        table, valid or not; per-date validity arrives as covers/masks.
    builder:
        The cube builder supplying thresholds, index specs and the
        columnar fill.  Must use ``engine="incremental"``; both
        ``mode="all"`` and ``mode="closed"`` are supported (closed mode
        maintains closedness flags through the closure diff).
    """

    def __init__(
        self,
        db: TransactionDatabase,
        builder: "SegregationDataCubeBuilder | None" = None,
    ):
        if db.units is None:
            raise CubeError("temporal engine needs unit-labelled rows")
        if builder is None:
            builder = SegregationDataCubeBuilder(engine="incremental")
        if builder.engine != "incremental":
            raise CubeError(
                "temporal engine requires a builder with "
                f"engine='incremental', got {builder.engine!r}"
            )
        self.db = db
        self.builder = builder

    # ------------------------------------------------------------------

    def _group_closed_info(
        self,
        flat: "ClosedInfo | None",
        contexts: "frozenset[Itemset]",
    ) -> "dict[Itemset, ClosedInfo] | None":
        """Nest a flat closure memo under the frequent contexts."""
        if flat is None:
            return None
        grouped: "dict[Itemset, ClosedInfo]" = {
            context: {} for context in contexts
        }
        split = self.db.dictionary.split
        for itemset, entry in flat.items():
            sub = grouped.get(split(itemset)[1])
            if sub is not None:
                sub[itemset] = entry
        return grouped

    def build_at(
        self, valid: "Cover | np.ndarray", date: "int | None" = None
    ) -> TemporalBuildState:
        """Full (cold) columnar build at one date; seeds the timeline."""
        active = as_cover(valid)
        db = self.db.restrict(active)
        cube, mined = self.builder._build_mined(db)
        contexts = frozenset(mined.context_tvecs)
        return TemporalBuildState(
            date=date,
            active=active,
            contexts=contexts,
            cube=cube,
            db=db,
            minsup_pop=cube.metadata.min_population,
            minsup_min=cube.metadata.min_minority,
            context_digests={
                context: _tvec_digest(tvec)
                for context, tvec in mined.context_tvecs.items()
            },
            closed_info=self._group_closed_info(
                mined.closed_info, contexts
            ),
        )

    def _unchanged_cube(
        self, state: TemporalBuildState, started: float
    ) -> SegregationCube:
        """A zero-work update's cube: previous cells, incremental extra.

        The table, dictionary and resolver are shared with the previous
        cube (nothing changed); only the provenance is fresh, so
        consumers of the incremental ``extra`` keys (carried/recomputed
        counts, changed rows) see a consistent all-carried record
        instead of the previous date's.
        """
        previous = state.cube.metadata
        metadata = replace(
            previous,
            build_seconds=time.perf_counter() - started,
            extra={
                "engine": "incremental",
                "n_contexts": len(state.contexts),
                "n_carried_contexts": len(state.contexts),
                "n_recomputed_contexts": 0,
                "n_changed_rows": 0,
                "n_carried_cells": len(state.cube),
                "n_carried_cells_within_affected": 0,
                "n_recomputed_cells": 0,
            },
        )
        resolver = _LazyResolver(
            self.builder, state.db, state.minsup_pop, state.minsup_min
        )
        return SegregationCube(
            state.cube.table, self.db.dictionary, metadata,
            resolver=resolver,
        )

    def update(
        self,
        state: TemporalBuildState,
        valid: "Cover | np.ndarray",
        date: "int | None" = None,
    ) -> TemporalBuildState:
        """Advance the timeline one date, recomputing only what changed."""
        started = time.perf_counter()
        active = as_cover(valid)
        # The rows whose validity flipped: one XOR of the two dates'
        # live-row covers (their sizes must agree).
        changed = state.active ^ active
        n_changed = changed.support()
        if n_changed == 0:
            return replace(
                state,
                date=date,
                active=active,
                cube=self._unchanged_cube(state, started),
            )

        db = self.db.restrict(active)
        minsup_pop = absolute_minsup(
            self.builder.min_population, db.n_active
        )
        minsup_min = absolute_minsup(self.builder.min_minority, db.n_active)
        if (minsup_pop, minsup_min) != (state.minsup_pop, state.minsup_min):
            # Fractional thresholds resolved to new absolutes: an
            # untouched cover no longer implies an unchanged cell set.
            return self.build_at(active, date)

        # An item on no changed row has the same cover at both dates, so
        # no itemset holding it changed: the wedge through the lattice.
        affected_items = frozenset(
            item for item, cover in self.db.covers().items()
            if cover.intersect_support(changed)
        )

        # Split the previous frequent contexts into carried (provably
        # untouched by the change) and dropped-for-recomputation.  The
        # root context is affected whenever anything changed at all.
        carried: "list[Itemset]" = []
        for context in state.contexts:
            if not context:
                continue
            if not set(context) <= affected_items:
                carried.append(context)
            elif (self.db.cover_of(context) & changed).support() == 0:
                carried.append(context)
        carried_set = set(carried)

        # Re-mine the affected part of the context lattice at the new
        # date: every changed-or-new frequent context is made entirely
        # of affected items, so mining over them alone is exhaustive.
        affected_ca = [
            i for i in self.db.dictionary.ca_ids if i in affected_items
        ]
        recompute = mine_eclat(
            db,
            minsup_pop,
            items=affected_ca,
            max_len=self.builder.max_ca_items,
            with_covers=True,
        )
        if db.n_active >= minsup_pop:
            recompute[frozenset()] = db.full_cover()
        recompute = {
            context: cover for context, cover in recompute.items()
            if context not in carried_set
        }

        # Count the recomputed contexts' population vectors up front:
        # their digests against the previous date's are what licenses
        # carrying individual cells inside an affected context.
        mined = MinedCoordinates.of_contexts(
            db, list(recompute), minsup_pop, minsup_min
        )
        new_digests = {
            context: _tvec_digest(tvec)
            for context, tvec in mined.context_tvecs.items()
        }

        # Enumerate the candidate cells of each recomputed context: SA
        # refinements inside the context's cover, at the mixed threshold
        # the full pass-2 mine uses.
        mixed_minsup = min(minsup_min, minsup_pop)
        sa_ids = list(self.db.dictionary.sa_ids)
        candidates: "dict[Itemset, dict[Itemset, Cover]]" = {}
        for context, context_cover in recompute.items():
            cands: "dict[Itemset, Cover]" = {context: context_cover}
            if sa_ids:
                refinements = mine_eclat(
                    db,
                    mixed_minsup,
                    items=sa_ids,
                    max_len=self.builder.max_sa_items,
                    with_covers=True,
                    within=context_cover,
                )
                for sa_part, cell_cover in refinements.items():
                    cands[sa_part | context] = cell_cover
            candidates[context] = cands

        # Closed mode: one closure-diff pass decides candidacy.  Flags
        # are re-derived only where the cover digest moved; everything
        # else reuses the previous date's flag (closedness is a function
        # of the cover and the static item covers alone).
        closed_mode = self.builder.mode == "closed"
        flags: "ClosedInfo | None" = None
        new_closed_info: "dict[Itemset, ClosedInfo] | None" = None
        if closed_mode:
            prev_info = state.closed_info or {}
            flat_prev: ClosedInfo = {}
            for sub in prev_info.values():
                flat_prev.update(sub)
            flags = closure_diff(
                db,
                {
                    itemset: cover
                    for cands in candidates.values()
                    for itemset, cover in cands.items()
                },
                previous=flat_prev,
                max_sa=self.builder.max_sa_items,
                max_ca=self.builder.max_ca_items,
            )
            new_closed_info = {
                context: prev_info.get(context, {})
                for context in carried_set
            }
            for context, cands in candidates.items():
                new_closed_info[context] = {
                    itemset: flags[itemset] for itemset in cands
                }

        # Cell-level carry inside the recomputed contexts: a candidate
        # whose static union cover misses every changed row has an
        # unchanged minority vector; when the context's tvec digest is
        # also unchanged the previous cube row is reused verbatim (or,
        # if the cell did not exist, it is dropped without counting —
        # its minority total is still below the threshold).  Everything
        # else goes through the ordinary columnar count + eval path.
        prev_digests = state.context_digests or {}
        prev_table = state.cube.table
        carried_within_rows: "list[int]" = []
        mixed_covers: "dict[CellKey, Cover]" = {}
        sa_static: "dict[Itemset, Cover]" = {}
        for context, cands in candidates.items():
            tvec_same = (
                context in prev_digests
                and prev_digests[context] == new_digests[context]
            )
            changed_ctx: "Cover | None" = None
            for itemset, cover in cands.items():
                if closed_mode and itemset and not flags[itemset][1]:
                    # Not closed at this date: not a candidate, exactly
                    # as the from-scratch closed filter would decide.
                    continue
                sa_part = itemset - context
                if not sa_part:
                    # Context-only cell: its row is a function of the
                    # tvec alone, so digest equality carries it.
                    prev_row = (
                        prev_table.row_of((sa_part, context))
                        if tvec_same else None
                    )
                    if prev_row is not None:
                        carried_within_rows.append(prev_row)
                    else:
                        mixed_covers[(sa_part, context)] = cover
                    continue
                # Untouched when any single item misses every changed
                # row (item-level screen, no cover work), or when the
                # joint static cover does.
                untouched = not sa_part <= affected_items
                if not untouched:
                    if changed_ctx is None:
                        changed_ctx = self.db.cover_of(context) & changed
                    sa_cover = sa_static.get(sa_part)
                    if sa_cover is None:
                        sa_cover = self.db.cover_of(sa_part)
                        sa_static[sa_part] = sa_cover
                    untouched = (changed_ctx & sa_cover).support() == 0
                if untouched:
                    prev_row = prev_table.row_of((sa_part, context))
                    if prev_row is not None and tvec_same:
                        carried_within_rows.append(prev_row)
                        continue
                    if prev_row is None and context in state.contexts:
                        # The cell was a candidate at the previous date
                        # too (same support, same closedness flag) and
                        # was dropped by the minority threshold — its
                        # unchanged total drops it again.
                        continue
                mixed_covers[(sa_part, context)] = cover

        # Count and fill the recomputed cells through the ordinary
        # columnar engine (bit-exact with a from-scratch build).
        mined.mixed_covers = mixed_covers
        fresh = self.builder._fill_columnar(db, mined)

        # Merge: carried rows — whole contexts and individual cells of
        # affected contexts — keep their previous-table order and sit
        # ahead of the freshly evaluated rows.
        prev_keys = prev_table.keys
        ctx_keep = [
            i for i, key in enumerate(prev_keys)
            if key[1] in carried_set
        ]
        keep = np.array(
            sorted(set(ctx_keep).union(carried_within_rows)),
            dtype=np.int64,
        )
        keys = [prev_keys[i] for i in keep] + list(fresh.keys)
        table = CellTable(
            keys,
            np.concatenate([prev_table.population[keep], fresh.population]),
            np.concatenate([prev_table.minority[keep], fresh.minority]),
            np.concatenate([prev_table.n_units[keep], fresh.n_units]),
            {
                name: np.concatenate(
                    [prev_table.columns[name][keep], column]
                )
                for name, column in fresh.columns.items()
            },
            len(self.db.dictionary),
        )

        metadata = CubeMetadata(
            index_names=[spec.name for spec in self.builder.indexes],
            min_population=minsup_pop,
            min_minority=minsup_min,
            n_rows=db.n_active,
            n_units=db.n_units,
            mode=self.builder.mode,
            backend="eclat",
            build_seconds=time.perf_counter() - started,
            extra={
                "engine": "incremental",
                "n_contexts": len(carried) + len(recompute),
                "n_carried_contexts": len(carried),
                "n_recomputed_contexts": len(recompute),
                "n_changed_rows": n_changed,
                "n_carried_cells": len(ctx_keep),
                "n_carried_cells_within_affected": len(
                    carried_within_rows
                ),
                "n_recomputed_cells": len(fresh),
            },
        )
        resolver = _LazyResolver(self.builder, db, minsup_pop, minsup_min)
        cube = SegregationCube(
            table, self.db.dictionary, metadata, resolver=resolver
        )
        context_digests = {
            context: prev_digests[context]
            for context in carried_set if context in prev_digests
        }
        context_digests.update(new_digests)
        return TemporalBuildState(
            date=date,
            active=active,
            contexts=frozenset(carried_set | set(recompute)),
            cube=cube,
            db=db,
            minsup_pop=minsup_pop,
            minsup_min=minsup_min,
            context_digests=context_digests,
            closed_info=new_closed_info,
        )

    # ------------------------------------------------------------------

    def run(
        self,
        dated_covers: "list[tuple[int, Cover | np.ndarray]]",
    ) -> "list[TemporalBuildState]":
        """Build the whole dated sequence: cold start, then deltas."""
        states: "list[TemporalBuildState]" = []
        for date, valid in dated_covers:
            if not states:
                states.append(self.build_at(valid, date))
            else:
                states.append(self.update(states[-1], valid, date))
        return states
