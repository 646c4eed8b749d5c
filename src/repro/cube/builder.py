"""SegregationDataCubeBuilder: itemset-driven cube materialisation.

This is the core algorithm of the paper (§2, implementing the JIIS
companion's SegregationDataCubeBuilder): because segregation indexes are
**not additive**, a cell cannot be rolled up from finer cells; instead,

1. ``finalTable`` is encoded as a transaction database (one transaction
   per individual×unit row; items = SA/CA ``attribute=value`` pairs;
   the unit id rides along as a transaction label);
2. frequent itemsets are mined over the items — the frequency threshold
   is the discovery guard-rail: cells describing fewer than
   ``min_minority`` individuals are statistically meaningless and
   pruned *with* their refinements, which is what makes the cube
   tractable compared to full enumeration (benchmark E10);
3. every mined itemset ``X`` splits uniquely into SA part ``A`` and CA
   part ``B`` — the cell coordinates.  The cell's population counts come
   from the covers: ``t_i`` = per-unit counts of ``cover(B)``, ``m_i`` =
   per-unit counts of ``cover(X)``; every requested segregation index is
   evaluated on those vectors.

The fill stage is **columnar** by default (``engine="columnar"``): all
candidate cells are counted at once through
:meth:`~repro.itemsets.transactions.TransactionDatabase.unit_counts_many`
(one grouped, chunked pass producing the ``(n_cells, n_units)`` minority
matrix), and every index is evaluated per *context* through its batched
kernel (:meth:`~repro.indexes.base.IndexSpec.compute_batch`) — one
vectorized call over all cells sharing a context instead of one Python
call per cell.  Results land directly in the cube's struct-of-arrays
:class:`~repro.cube.table.CellTable`, in the order and with the bits of
a scalar one-cell-at-a-time fill (the reference the tests and benchmark
E17 keep).  Per-context populations and unit counts are computed once
per context, never re-derived per cell, and context covers below
``min_population`` are discarded before any per-unit counting happens.

A multiprocess variant (``engine="parallel"``, :mod:`repro.cube.parallel`)
partitions the context groups across workers; each worker runs the exact
same phases B/C (the shared :func:`eval_context_block`) over shared-memory
cover words, so the parallel cube is bit-exact against the columnar one.
Mining always runs in-process: pooling the mining passes loses at every
size measured, because every candidate cover would be pickled back.

In ``closed`` mode only closed coordinates are materialised (non-closed
itemsets select exactly the same minority as their closure); the cube
carries a resolver that answers any other point query exactly from the
item covers, so no information is lost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cube.cell import CellStats
from repro.cube.coordinates import CellKey
from repro.cube.cube import CubeMetadata, SegregationCube
from repro.cube.table import CellTable
from repro.errors import CubeError
from repro.etl.schema import Schema
from repro.etl.table import Table
from repro.indexes.base import IndexSpec, resolve_indexes
from repro.indexes.counts import UnitCounts
from repro.itemsets.closed import filter_closed
from repro.itemsets.coverset import Cover, cover_digest
from repro.itemsets.eclat import mine_eclat, mine_eclat_typed
from repro.itemsets.miner import absolute_minsup
from repro.itemsets.transactions import TransactionDatabase, encode_table

Itemset = frozenset[int]

#: Cell-count budget of one columnar fill batch, in int64 matrix
#: entries (~32 MB): batches hold at most this many cells x units.
_FILL_BATCH_CELLS = 1 << 22


def eval_context_block(
    specs: "list[IndexSpec]",
    tvec: np.ndarray,
    sub_all: np.ndarray,
    minsup_min: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Phase C for one context block: thresholds + batched index kernels.

    ``sub_all`` is the block's minority-count matrix (one row per
    candidate cell of the context, one column per unit); ``tvec`` is the
    context's per-unit population vector.  Returns ``(totals, keep,
    values)`` where ``values`` is ``(n_specs, n_block_rows)`` with NaN
    on dropped rows.  This is the single evaluation path shared by the
    single-process columnar fill and the parallel workers — sharing it
    is what makes ``engine="parallel"`` bit-exact.
    """
    totals = sub_all.sum(axis=1)
    keep_cells = totals >= minsup_min
    values = np.full((len(specs), len(totals)), np.nan)
    if keep_cells.any():
        # Prepare once per context (float64 cast + empty-unit drop),
        # not once per index: every spec sees the same batch.
        tvec_f = tvec.astype(np.float64)
        sub = sub_all[keep_cells].astype(np.float64)
        keep_units = tvec_f > 0
        if not keep_units.all():
            tvec_f = tvec_f[keep_units]
            sub = np.ascontiguousarray(sub[:, keep_units])
        for j, spec in enumerate(specs):
            values[j, keep_cells] = spec.compute_batch_prepared(tvec_f, sub)
    return totals, keep_cells, values


def plan_context_batches(
    by_context: "dict[Itemset, list[int]]",
    max_batch_cells: int,
) -> "list[list[tuple[Itemset, list[int]]]]":
    """Slice context groups into bounded batches of matrix rows.

    Kernels are row-independent, so contexts are sliced freely into
    batches of exactly ``max_batch_cells`` rows (the last one smaller)
    — the memory bound holds even when a single popular context
    dominates the candidate set.
    """
    batches: "list[list[tuple[Itemset, list[int]]]]" = []
    batch_acc: "list[tuple[Itemset, list[int]]]" = []
    room = max_batch_cells
    for ca_part, rows in by_context.items():
        start = 0
        while start < len(rows):
            take = rows[start:start + room]
            batch_acc.append((ca_part, take))
            start += len(take)
            room -= len(take)
            if room == 0:
                batches.append(batch_acc)
                batch_acc, room = [], max_batch_cells
    if batch_acc:
        batches.append(batch_acc)
    return batches


@dataclass
class CandidateArrays:
    """Phase A output: the candidate cells in mining order.

    ``rows_of[i] == -1`` marks a context-only candidate (no counting
    needed); otherwise it is the candidate's row in the SA count
    matrix / ``sa_covers`` list.
    """

    keys: "list[CellKey]"
    contexts: "list[Itemset]"
    sa_covers: "list[Cover]"
    rows_of: np.ndarray
    pops: np.ndarray
    units_of: np.ndarray

    def rows_by_context(self) -> "dict[Itemset, list[int]]":
        """Group SA-bearing matrix rows by their context."""
        by_context: "dict[Itemset, list[int]]" = {}
        for cand, row in enumerate(self.rows_of):
            if row >= 0:
                by_context.setdefault(
                    self.contexts[cand], []
                ).append(int(row))
        return by_context


@dataclass
class MinedCoordinates:
    """Output of the mining passes, input of the fill stage."""

    #: Mixed SA+CA itemset -> cover, within the coordinate lattice.
    mixed_covers: "dict[Itemset, Cover]"
    #: Frequent context -> per-unit population vector ``t``.
    context_tvecs: "dict[Itemset, np.ndarray]"
    #: Frequent context -> total population (``t.sum()``, computed once).
    context_pops: "dict[Itemset, int]"
    #: Frequent context -> number of non-empty units (computed once).
    context_nunits: "dict[Itemset, int]"
    minsup_pop: int
    minsup_min: int
    n_contexts: int
    #: Closed mode + incremental engine only: every pass-2 itemset —
    #: including the non-closed ones filtered out of ``mixed_covers`` —
    #: mapped to ``(cover_digest, closed_flag)``, the seed of the
    #: incremental engine's closure-diff pass (see
    #: :func:`repro.itemsets.closed.closure_diff`).
    closed_info: "dict[Itemset, tuple[bytes, bool]] | None" = None


class SegregationDataCubeBuilder:
    """Builds a :class:`~repro.cube.cube.SegregationCube` from ``finalTable``.

    Parameters
    ----------
    indexes:
        Index short names (default: the six SCube indexes).
    min_population:
        Minimum context size ``T`` for a cell to exist (absolute count, or
        a fraction of the table in ``(0,1)``).
    min_minority:
        Minimum minority size ``M`` for a cell to exist.
    max_sa_items / max_ca_items:
        Caps on coordinate granularity (None = unbounded).
    mode:
        ``"all"`` materialises every frequent cell; ``"closed"``
        materialises closed coordinates only and resolves other queries
        lazily (the JIIS efficiency solution).
    engine:
        Fill strategy: ``"columnar"`` (default) batches all cells
        through the count-matrix and vectorized index kernels;
        ``"incremental"`` builds the same way and keeps the state
        :class:`~repro.cube.incremental.TemporalCubeEngine` updates
        from; ``"parallel"`` partitions the context groups across
        ``workers`` processes (see :mod:`repro.cube.parallel`).  All
        produce bit-identical cubes.
    workers:
        Process count for ``engine="parallel"`` (None = one per CPU);
        ignored by the other engines.
    """

    def __init__(
        self,
        indexes: "list[str] | None" = None,
        min_population: "int | float" = 20,
        min_minority: "int | float" = 5,
        max_sa_items: "int | None" = None,
        max_ca_items: "int | None" = None,
        mode: str = "all",
        engine: str = "columnar",
        workers: "int | None" = None,
    ):
        if mode not in ("all", "closed"):
            raise CubeError(f"mode must be 'all' or 'closed', got {mode!r}")
        if engine not in ("columnar", "incremental", "parallel"):
            raise CubeError(
                "engine must be 'columnar', 'incremental' or 'parallel', "
                f"got {engine!r}"
            )
        if workers is not None and int(workers) < 1:
            raise CubeError(f"workers must be >= 1, got {workers!r}")
        self.indexes: list[IndexSpec] = resolve_indexes(indexes)
        self.min_population = min_population
        self.min_minority = min_minority
        self.max_sa_items = max_sa_items
        self.max_ca_items = max_ca_items
        self.mode = mode
        self.engine = engine
        self.workers = None if workers is None else int(workers)

    # ------------------------------------------------------------------

    def build(self, table: Table, schema: Schema) -> SegregationCube:
        """Encode, mine and fill the cube."""
        if not schema.sa_names:
            raise CubeError("schema declares no segregation attributes")
        schema.unit_name  # raises SchemaError when missing
        db = encode_table(table, schema)
        if len(db) == 0:
            raise CubeError("finalTable is empty")
        return self.build_from_transactions(db)

    def build_from_transactions(self, db: TransactionDatabase) -> SegregationCube:
        """Build from an already-encoded transaction database."""
        cube, _ = self._build_mined(db)
        return cube

    def _build_mined(
        self, db: TransactionDatabase
    ) -> "tuple[SegregationCube, MinedCoordinates]":
        """Build and also return the mined coordinates.

        The incremental engine's cold start needs the mining byproducts
        (context tvecs, closed flags) alongside the cube; everyone else
        goes through :meth:`build_from_transactions`.
        """
        if db.units is None:
            raise CubeError("transaction database has no unit labels")
        started = time.perf_counter()
        mined = self.mine_coordinates(db)
        extra_meta: "dict[str, object]" = {}
        if self.engine == "parallel":
            from repro._pool import resolve_workers
            from repro.cube.parallel import fill_parallel

            store = fill_parallel(self, db, mined)
            extra_meta["workers"] = resolve_workers(self.workers)
        else:
            # "incremental" cold-starts (and plain-builds) through the
            # columnar fill; its delta path lives in cube/incremental.py.
            store = self._fill_columnar(db, mined)

        metadata = CubeMetadata(
            index_names=[spec.name for spec in self.indexes],
            min_population=mined.minsup_pop,
            min_minority=mined.minsup_min,
            n_rows=db.n_active,
            n_units=db.n_units,
            mode=self.mode,
            backend="eclat",
            build_seconds=time.perf_counter() - started,
            extra={
                "n_contexts": mined.n_contexts,
                "n_mined_itemsets": len(mined.mixed_covers),
                "engine": self.engine,
                **extra_meta,
            },
        )
        resolver = _LazyResolver(
            self, db, mined.minsup_pop, mined.minsup_min
        )
        cube = SegregationCube(store, db.dictionary, metadata,
                               resolver=resolver)
        return cube, mined

    def build_snapshot(
        self,
        table: Table,
        schema: Schema,
        path,
        mmap: bool = True,
    ) -> SegregationCube:
        """Build the cube, persist it, and return the *snapshot-backed* cube.

        The expensive ETL → mining → fill work runs once; what is
        returned reads from the on-disk columns exactly as any later
        :func:`repro.store.open_snapshot` caller will (so serving what
        was just built and serving a reopened snapshot are the same
        code path).

        Note for ``mode="closed"``: snapshots carry cells, not covers,
        so the returned cube has **no lazy resolver** — point queries
        for frequent-but-not-closed coordinates answer None/nan.  Use
        :meth:`build` (and :meth:`~repro.cube.cube.SegregationCube.dump`
        separately) when the live resolver semantics are needed.
        """
        from repro.store.snapshot import dump_snapshot, open_snapshot

        cube = self.build(table, schema)
        dump_snapshot(cube, path)
        return open_snapshot(path, mmap=mmap)

    def mine_coordinates(self, db: TransactionDatabase) -> MinedCoordinates:
        """Run the two mining passes; no cells are filled yet.

        Pass 1 mines frequent CA-only itemsets (the contexts) with
        covers; a context below ``min_population`` never reaches the
        per-unit counting stage (mined contexts satisfy the threshold by
        eclat's frequency bound, and the hand-added root context — the
        only other cover — is skipped when the table itself is too
        small).  The per-context population and non-empty-unit count are
        derived once here — every cell of a context shares them.

        Pass 2 mines frequent typed itemsets (the candidate cells) with
        covers, DFS-constrained to the coordinate lattice (at most
        ``max_sa_items`` SA and ``max_ca_items`` CA items), at the
        smaller of the two thresholds so that context-only cells (SA
        part empty, filtered by ``min_population`` later) are not lost
        when ``min_minority`` exceeds ``min_population``.
        """
        minsup_pop = absolute_minsup(self.min_population, db.n_active)
        minsup_min = absolute_minsup(self.min_minority, db.n_active)

        context_covers = mine_eclat(
            db,
            minsup_pop,
            items=db.dictionary.ca_ids,
            max_len=self.max_ca_items,
            with_covers=True,
        )
        if db.n_active >= minsup_pop:
            # The root (empty) context is added by hand, so it is the
            # only cover that can sit below min_population — mined
            # contexts already satisfy it via eclat's frequency bound.
            # Skipping it here means no context that cannot produce a
            # cell ever pays for its per-unit counts.
            context_covers[frozenset()] = db.full_cover()
        tvec_matrix = db.unit_counts_many(list(context_covers.values()))
        pops_vec = tvec_matrix.sum(axis=1)
        nunits_vec = (tvec_matrix > 0).sum(axis=1)
        context_tvecs = {
            b: tvec_matrix[i] for i, b in enumerate(context_covers)
        }
        context_pops = {
            b: int(pops_vec[i]) for i, b in enumerate(context_covers)
        }
        context_nunits = {
            b: int(nunits_vec[i]) for i, b in enumerate(context_covers)
        }

        mixed_minsup = min(minsup_min, minsup_pop)
        mixed_covers = mine_eclat_typed(
            db,
            mixed_minsup,
            sa_ids=db.dictionary.sa_ids,
            ca_ids=db.dictionary.ca_ids,
            max_sa=self.max_sa_items,
            max_ca=self.max_ca_items,
        )
        closed_info: "dict[Itemset, tuple[bytes, bool]] | None" = None
        if self.mode == "closed":
            supports = {k: v.support() for k, v in mixed_covers.items()}
            closed = filter_closed(supports)
            if self.engine == "incremental":
                # Seed the closure-diff pass: flags for *every* mined
                # itemset, non-closed ones included, so a later update
                # can reuse any flag whose cover digest is unchanged.
                closed_info = {
                    k: (cover_digest(v), k in closed)
                    for k, v in mixed_covers.items()
                }
            kept = {k: v for k, v in mixed_covers.items() if k in closed}
            kept[frozenset()] = mixed_covers[frozenset()]
            mixed_covers = kept

        return MinedCoordinates(
            mixed_covers=mixed_covers,
            context_tvecs=context_tvecs,
            context_pops=context_pops,
            context_nunits=context_nunits,
            minsup_pop=minsup_pop,
            minsup_min=minsup_min,
            n_contexts=len(context_covers),
            closed_info=closed_info,
        )

    # ------------------------------------------------------------------
    # Fill engines
    # ------------------------------------------------------------------

    def _candidates(self, db: TransactionDatabase, mined: MinedCoordinates):
        """Yield ``(key, ca_part, cover)`` for every in-lattice itemset
        whose context survived the population threshold."""
        for itemset, cover in mined.mixed_covers.items():
            sa_part, ca_part = db.dictionary.split(itemset)
            if (self.max_sa_items is not None
                    and len(sa_part) > self.max_sa_items):
                continue
            if (self.max_ca_items is not None
                    and len(ca_part) > self.max_ca_items):
                continue
            if ca_part not in mined.context_tvecs:
                # Context below the population threshold: no cell.
                continue
            key: CellKey = (sa_part, ca_part)
            yield key, ca_part, cover

    def _enumerate_candidates(
        self, db: TransactionDatabase, mined: MinedCoordinates
    ) -> CandidateArrays:
        """Phase A — enumerate candidates in mining order (the order a
        one-cell-at-a-time fill inserts cells in).  Context-only cells
        (empty SA part) need no counting; SA-bearing cells queue their
        covers."""
        cand_keys: "list[CellKey]" = []
        cand_ctx: "list[Itemset]" = []
        sa_covers: "list[Cover]" = []
        sa_row: "list[int]" = []       # candidate -> matrix row (-1 = ctx)
        for key, ca_part, cover in self._candidates(db, mined):
            cand_keys.append(key)
            cand_ctx.append(ca_part)
            if key[0]:
                sa_row.append(len(sa_covers))
                sa_covers.append(cover)
            else:
                sa_row.append(-1)
        n_cand = len(cand_keys)
        return CandidateArrays(
            keys=cand_keys,
            contexts=cand_ctx,
            sa_covers=sa_covers,
            rows_of=np.array(sa_row, dtype=np.int64),
            pops=np.fromiter(
                (mined.context_pops[b] for b in cand_ctx),
                dtype=np.int64, count=n_cand,
            ),
            units_of=np.fromiter(
                (mined.context_nunits[b] for b in cand_ctx),
                dtype=np.int64, count=n_cand,
            ),
        )

    def _assemble_cells(
        self,
        db: TransactionDatabase,
        cand: CandidateArrays,
        minority_totals: np.ndarray,
        kept_rows: np.ndarray,
        values: np.ndarray,
    ) -> CellTable:
        """Phase D — scatter the surviving candidates into the store,
        keeping mining order."""
        rows_of, pops = cand.rows_of, cand.pops
        is_ctx = rows_of < 0
        emit = is_ctx.copy()
        emit[~is_ctx] = kept_rows[rows_of[~is_ctx]]
        out_idx = np.flatnonzero(emit)
        out_rows = rows_of[out_idx]
        out_is_ctx = out_rows < 0
        minority = np.empty(len(out_idx), dtype=np.int64)
        minority[out_is_ctx] = pops[out_idx][out_is_ctx]
        minority[~out_is_ctx] = minority_totals[out_rows[~out_is_ctx]]
        columns = {}
        for j, spec in enumerate(self.indexes):
            col = np.full(len(out_idx), np.nan)
            col[~out_is_ctx] = values[j, out_rows[~out_is_ctx]]
            columns[spec.name] = col
        return CellTable(
            [cand.keys[i] for i in out_idx],
            pops[out_idx],
            minority,
            cand.units_of[out_idx],
            columns,
            len(db.dictionary),
        )

    def _fill_columnar(
        self, db: TransactionDatabase, mined: MinedCoordinates
    ) -> CellTable:
        """Batch-evaluate every candidate cell through count matrices.

        SA-bearing candidates are grouped by context and processed in
        bounded batches of contexts: each batch gets its minority-count
        matrix from one ``unit_counts_many`` pass, rows below
        ``min_minority`` are dropped with one mask, and each index is
        evaluated per context with a single batched kernel call over
        that context's surviving rows (:func:`eval_context_block`).
        Only per-cell scalars (minority totals, index values) persist
        across batches, so peak memory is bounded by the batch size,
        not ``n_cells * n_units``.
        """
        specs = self.indexes
        cand = self._enumerate_candidates(db, mined)
        sa_covers = cand.sa_covers

        # Phase B/C — count and evaluate per bounded batch of contexts.
        # Grouping by context lets each batch share one grouped
        # ``unit_counts_many`` pass and one kernel-input preparation per
        # context; the count matrix of a batch is discarded once its
        # minority totals and index values are extracted.
        by_context = cand.rows_by_context()
        minority_totals = np.zeros(len(sa_covers), dtype=np.int64)
        kept_rows = np.zeros(len(sa_covers), dtype=bool)
        values = np.full((len(specs), len(sa_covers)), np.nan)
        n_units = max(1, db.n_units)
        max_batch_cells = max(1, _FILL_BATCH_CELLS // n_units)
        for batch in plan_context_batches(by_context, max_batch_cells):
            matrix = db.unit_counts_many(
                [sa_covers[r] for _, rows in batch for r in rows]
            )
            offset = 0
            for ca_part, rows in batch:
                sub_all = matrix[offset:offset + len(rows)]
                offset += len(rows)
                totals, keep_cells, block = eval_context_block(
                    specs, mined.context_tvecs[ca_part], sub_all,
                    mined.minsup_min,
                )
                minority_totals[rows] = totals
                kept_rows[rows] = keep_cells
                values[:, rows] = block

        return self._assemble_cells(
            db, cand, minority_totals, kept_rows, values
        )

    # ------------------------------------------------------------------

    def _make_cell(
        self,
        key: CellKey,
        minority_cover: "Cover | None",
        context_tvec: np.ndarray,
        db: TransactionDatabase,
        minsup_pop: int,
        minsup_min: int,
    ) -> "CellStats | None":
        """Fill one cell from covers; None when below thresholds."""
        population = int(context_tvec.sum())
        if population < minsup_pop:
            return None
        n_units = int((context_tvec > 0).sum())
        sa_part, _ = key
        if not sa_part:
            # Context-only navigation cell: indexes undefined by design.
            return CellStats(
                key=key,
                population=population,
                minority=population,
                n_units=n_units,
                indexes={spec.name: float("nan") for spec in self.indexes},
            )
        mvec = db.unit_counts(minority_cover)
        minority = int(mvec.sum())
        if minority < minsup_min:
            return None
        counts = UnitCounts(context_tvec, mvec)
        indexes = {spec.name: spec.compute(counts) for spec in self.indexes}
        return CellStats(
            key=key,
            population=population,
            minority=minority,
            n_units=n_units,
            indexes=indexes,
        )


class _LazyResolver:
    """Answers point queries for cells absent from the materialised cube.

    Works directly on the item covers: exact, and O(|items| * rows) per
    query.  Returns None when the queried cell is below the builder's
    thresholds (so lazy answers agree with materialisation).
    """

    def __init__(
        self,
        builder: SegregationDataCubeBuilder,
        db: TransactionDatabase,
        minsup_pop: int,
        minsup_min: int,
    ):
        self._builder = builder
        self._db = db
        self._minsup_pop = minsup_pop
        self._minsup_min = minsup_min

    def warm(self) -> None:
        """Force the database's lazily built shared state.

        The item covers and the unit→rows grouping are cached on first
        use without a lock; building them up front (the serving layer
        calls this) makes every later resolver call a pure read, safe
        for concurrent reader threads.
        """
        self._db.covers()
        self._db.unit_counts(self._db.full_cover())

    def __call__(self, key: CellKey) -> "CellStats | None":
        sa_part, ca_part = key
        context_cover = self._db.cover_of(ca_part)
        tvec = self._db.unit_counts(context_cover)
        minority_cover = (
            context_cover & self._db.cover_of(sa_part) if sa_part
            else context_cover
        )
        return self._builder._make_cell(
            key, minority_cover, tvec, self._db, self._minsup_pop,
            self._minsup_min
        )


def build_cube(
    table: Table,
    schema: Schema,
    indexes: "list[str] | None" = None,
    min_population: "int | float" = 20,
    min_minority: "int | float" = 5,
    max_sa_items: "int | None" = None,
    max_ca_items: "int | None" = None,
    mode: str = "all",
    engine: str = "columnar",
    workers: "int | None" = None,
    snapshot_path=None,
) -> SegregationCube:
    """One-call convenience wrapper around the builder.

    When ``snapshot_path`` is given the built cube is also persisted
    there as a reopenable snapshot (see :mod:`repro.store`).
    """
    builder = SegregationDataCubeBuilder(
        indexes=indexes,
        min_population=min_population,
        min_minority=min_minority,
        max_sa_items=max_sa_items,
        max_ca_items=max_ca_items,
        mode=mode,
        engine=engine,
        workers=workers,
    )
    cube = builder.build(table, schema)
    if snapshot_path is not None:
        from repro.store.snapshot import dump_snapshot

        dump_snapshot(cube, snapshot_path)
    return cube
