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

The build core exists once.  Mining is one level-wise eclat mine
(:func:`~repro.itemsets.eclat.mine_eclat_typed`) of the typed SA/CA
lattice; its CA-only itemsets at ``min_population``, plus the root, are
the contexts.  The mine hands the fill cell keys, not covers.  Then
the count phase: per-context populations and unit counts come from the
counting kernel, once per context (:meth:`MinedCoordinates.of_contexts`),
and a context below ``min_population`` is never counted.  The fill is
one count-and-evaluate loop, :func:`count_and_eval`: candidate cells
are grouped by context and cut into bounded batches; each batch is
counted on its contexts
(:func:`~repro.itemsets.transactions.count_on_contexts`: each
context's item rows — the item covers re-packed with the rows in unit
order — are ANDed once, each cell ANDs only its SA rows on top, and
the per-unit counts are read off a running popcount, without unpacking
any cover), and each context slice of it is evaluated with
:func:`eval_context_block`: the slice is one prepared block, over
which :func:`~repro.indexes.base.evaluate` runs each index's kernel
once for all cells sharing the context (each index exists only as that
kernel).  Results land directly in the cube's struct-of-arrays
:class:`~repro.cube.table.CellTable`, in mining order and with the bits
of a one-cell-at-a-time fill over the scalar index formulas (the
reference ``tests/oracles.py`` keeps and benchmark E17 checks).

Three callers share that loop.  ``engine="columnar"`` (the default)
runs it in-process over every context.  The opt-in ``engine="parallel"``
(:mod:`repro.cube.parallel`, the package's only process pool) runs it in
worker processes over partitions of the context groups, so the parallel
cube is bit-exact against the columnar one; it pays off only when the
fill does a lot of work (on 2 CPUs, two workers lose to the columnar
fill at 30k rows and win 1.29x per build at 2M rows).  The incremental
engine (:mod:`repro.cube.incremental`) runs the columnar fill over the
contexts a date changed.  Mining always runs in-process: pooling the
mine loses at every size measured, because every candidate cover would
be pickled back.

In ``closed`` mode only closed coordinates are materialised (non-closed
itemsets select exactly the same minority as their closure); the cube
carries a resolver that answers any other point query exactly from the
item covers.  It counts a cell with one ``unit_counts_of`` call and
evaluates it with :func:`eval_context_block` as a one-row block, so a
resolved cell has the bits a materialised one would, and no
information is lost.
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
from repro.indexes.base import IndexSpec, evaluate, resolve_indexes
from repro.itemsets.closed import filter_closed
from repro.itemsets.eclat import mine_eclat_typed
from repro.itemsets.miner import absolute_minsup
from repro.itemsets.transactions import (
    TransactionDatabase,
    count_on_contexts,
    encode_table,
)

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
    """Phase C for one context block: thresholds, then the evaluator.

    ``sub_all`` is the block's minority-count matrix (one row per
    candidate cell of the context, one column per unit); ``tvec`` is the
    context's per-unit population vector.  Returns ``(totals, keep,
    values)`` where ``values`` is ``(n_specs, n_block_rows)`` with NaN
    on dropped rows.  Every fill runs it through :func:`count_and_eval`,
    and the closed-mode resolver on a one-row block; the rows that pass
    the threshold are one :func:`~repro.indexes.base.evaluate` block.
    The kernels are row-independent, so a cell gets the same bits in any
    block — which is what makes ``engine="parallel"`` and resolved cells
    bit-exact.
    """
    totals = sub_all.sum(axis=1)
    keep_cells = totals >= minsup_min
    values = np.full((len(specs), len(totals)), np.nan)
    if keep_cells.any():
        values[:, keep_cells] = evaluate(specs, tvec, sub_all[keep_cells])
    return totals, keep_cells, values


def count_and_eval(
    groups: "list[tuple[Itemset, np.ndarray, np.ndarray]]",
    words: np.ndarray,
    bounds: np.ndarray,
    index_rows: np.ndarray,
    specs: "list[IndexSpec]",
    minsup_min: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Phases B/C: count and evaluate context groups in bounded batches.

    Each group is ``(context, tvec, rows)``: a context's CA item ids,
    its per-unit population vector and the ``index_rows`` rows (each
    cell's SA item ids) of its SA-bearing candidate cells.  The groups'
    rows, in order, are cut into batches of at most
    ``_FILL_BATCH_CELLS // n_units`` rows — a popular context is sliced
    across batches, so the bound holds whatever the groups' sizes.  The
    batches are counted on their contexts by
    :func:`~repro.itemsets.transactions.count_on_contexts` over the
    unit-ordered item ``words`` and unit ``bounds`` (each context's
    items ANDed once), and each context slice of a batch is evaluated
    with :func:`eval_context_block`.  Returns ``(rows, totals, keep,
    values)`` over the groups' rows in order.

    This is the one phase B/C loop: the columnar fill runs it over every
    group, each pool worker of ``engine="parallel"`` over its partition.
    """
    sizes = [len(group_rows) for _, _, group_rows in groups]
    rows = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [group_rows for _, _, group_rows in groups]
    )
    totals = np.empty(len(rows), dtype=np.int64)
    keep = np.empty(len(rows), dtype=bool)
    values = np.empty((len(specs), len(rows)))
    max_batch = max(1, _FILL_BATCH_CELLS // max(1, len(bounds) - 1))
    batches = count_on_contexts(
        words, bounds, [context for context, _, _ in groups],
        index_rows[rows], sizes, max_batch,
    )
    g, g_start = 0, 0          # the current group and its first row
    for a, matrix in zip(range(0, len(rows), max_batch), batches):
        b = a + len(matrix)
        while g < len(groups) and g_start < b:
            g_stop = g_start + sizes[g]
            lo, hi = max(g_start, a), min(g_stop, b)
            totals[lo:hi], keep[lo:hi], values[:, lo:hi] = eval_context_block(
                specs, groups[g][1], matrix[lo - a:hi - a], minsup_min,
            )
            if g_stop > b:
                break          # the group goes on in the next batch
            g, g_start = g + 1, g_stop
    return rows, totals, keep, values


@dataclass
class CandidateArrays:
    """Phase A output: the candidate cells in mining order.

    ``rows_of[i] == -1`` marks a context-only candidate (no counting
    needed); otherwise it is the candidate's row in the SA count
    matrix and in ``index_rows``, which holds each SA-bearing cell's SA
    item ids, padded with the live row.  ``groups`` holds one
    ``(context, tvec, rows)`` triple per context with SA-bearing
    candidates, the input of :func:`count_and_eval`.
    """

    keys: "list[CellKey]"
    index_rows: np.ndarray
    rows_of: np.ndarray
    pops: np.ndarray
    units_of: np.ndarray
    groups: "list[tuple[Itemset, np.ndarray, np.ndarray]]"


@dataclass
class MinedCoordinates:
    """Output of the mine, input of the fill stage."""

    #: Cell keys ``(SA part, CA part)`` within the coordinate lattice,
    #: in mining order (the closed ones only, in closed mode).
    keys: "list[CellKey]"
    #: Frequent context -> per-unit population vector ``t``.
    context_tvecs: "dict[Itemset, np.ndarray]"
    #: Frequent context -> total population (``t.sum()``, computed once).
    context_pops: "dict[Itemset, int]"
    #: Frequent context -> number of non-empty units (computed once).
    context_nunits: "dict[Itemset, int]"
    minsup_pop: int
    minsup_min: int
    n_contexts: int
    #: Closed mode + incremental engine only: every mined itemset —
    #: including the non-closed ones filtered out of ``keys`` — mapped
    #: to its capped-closed flag, the seed of the incremental engine's
    #: closure memo (see :mod:`repro.cube.incremental`).
    closed_info: "dict[Itemset, bool] | None" = None

    @classmethod
    def of_contexts(
        cls,
        db: TransactionDatabase,
        contexts: "list[Itemset]",
        minsup_pop: int,
        minsup_min: int,
    ) -> "MinedCoordinates":
        """The contexts' per-unit populations, counted once; no cells yet.

        One ``unit_counts_of`` call counts every context; its population
        and non-empty-unit count are derived here once, since every cell
        of a context shares them.  The caller adds the cell ``keys``.
        """
        tvecs = db.unit_counts_of(contexts)
        return cls(
            keys=[],
            context_tvecs=dict(zip(contexts, tvecs)),
            context_pops=dict(zip(contexts, tvecs.sum(axis=1).tolist())),
            context_nunits=dict(
                zip(contexts, (tvecs > 0).sum(axis=1).tolist())
            ),
            minsup_pop=minsup_pop,
            minsup_min=minsup_min,
            n_contexts=len(contexts),
        )


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
            from repro.cube.parallel import fill_parallel, resolve_workers

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
                "n_mined_itemsets": len(mined.keys),
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

    def mine_coordinates(self, db: TransactionDatabase) -> MinedCoordinates:
        """Mine the coordinate lattice once; no cells are filled yet.

        One mine of the frequent typed itemsets (the candidate cells),
        constrained to the coordinate lattice (at most ``max_sa_items``
        SA and ``max_ca_items`` CA items), at the smaller of the two
        thresholds so that context-only cells (SA part empty, filtered
        by ``min_population`` later) are not lost when ``min_minority``
        exceeds ``min_population``.

        The contexts are its CA-only itemsets with support at least
        ``min_population``, in mining order, then the root.  The mine
        at the smaller threshold holds every one of them, and the
        stable support sort keeps the CA items' relative order, so
        these are, in order, what mining the CA items alone at
        ``min_population`` would find.  A context below
        ``min_population`` never reaches the per-unit counting stage
        (the root, added by hand, is skipped when the table itself is
        too small).  The per-context population and non-empty-unit
        count are derived once here (:meth:`MinedCoordinates.of_contexts`)
        — every cell of a context shares them.

        The closed filter reads the mine's supports before this
        returns, so the fill gets cell keys and the covers are freed.
        """
        minsup_pop = absolute_minsup(self.min_population, db.n_active)
        minsup_min = absolute_minsup(self.min_minority, db.n_active)

        lattice = mine_eclat_typed(
            db,
            min(minsup_min, minsup_pop),
            sa_ids=db.dictionary.sa_ids,
            ca_ids=db.dictionary.ca_ids,
            max_sa=self.max_sa_items,
            max_ca=self.max_ca_items,
        )
        keys = list(lattice)
        supports = lattice.supports.tolist()
        contexts = [
            ca for (sa, ca), support in zip(keys[1:], supports[1:])
            if not sa and support >= minsup_pop
        ]
        if db.n_active >= minsup_pop:
            # The root (empty) context is added by hand, so it is the
            # only context that can sit below min_population — mined
            # contexts satisfy it by the filter above.  Skipping it
            # here means no context that cannot produce a cell ever
            # pays for its per-unit counts.
            contexts.append(frozenset())
        mined = MinedCoordinates.of_contexts(
            db, contexts, minsup_pop, minsup_min
        )

        if self.mode == "closed":
            itemsets = [sa | ca for sa, ca in keys]
            closed = filter_closed(dict(zip(itemsets, supports)))
            if self.engine == "incremental":
                # Seed the closure memo: flags for *every* mined
                # itemset, non-closed ones included, so a later update
                # can reuse the flag of any itemset whose cover it
                # proves unchanged.
                mined.closed_info = {
                    itemset: itemset in closed for itemset in itemsets
                }
            # The root is always closed, so it stays first.
            keys = [
                key for key, itemset in zip(keys, itemsets)
                if itemset in closed
            ]
        mined.keys = keys
        return mined

    # ------------------------------------------------------------------
    # Fill engines
    # ------------------------------------------------------------------

    @staticmethod
    def _candidates(mined: MinedCoordinates) -> "list[CellKey]":
        """Every mined cell key whose context survived the population
        threshold (a context below it has no cell), in mining order.
        Mining keeps every key within the item caps."""
        return [key for key in mined.keys if key[1] in mined.context_tvecs]

    def _enumerate_candidates(
        self, db: TransactionDatabase, mined: MinedCoordinates
    ) -> CandidateArrays:
        """Phase A — enumerate candidates in mining order (the order a
        one-cell-at-a-time fill inserts cells in).  Context-only cells
        (empty SA part) need no counting; SA-bearing cells queue their
        SA items, grouped by context."""
        cand_keys = self._candidates(mined)
        sa_parts: "list[Itemset]" = []
        sa_row: "list[int]" = []       # candidate -> matrix row (-1 = ctx)
        by_context: "dict[Itemset, list[int]]" = {}
        for sa_part, ca_part in cand_keys:
            if sa_part:
                by_context.setdefault(ca_part, []).append(len(sa_parts))
                sa_row.append(len(sa_parts))
                sa_parts.append(sa_part)
            else:
                sa_row.append(-1)
        n_cand = len(cand_keys)
        return CandidateArrays(
            keys=cand_keys,
            # The context's cover holds the live row, so a cell's rows
            # drop the live-row column that closes every padded row.
            index_rows=db.item_index_rows(sa_parts)[:, :-1],
            rows_of=np.array(sa_row, dtype=np.int64),
            pops=np.fromiter(
                (mined.context_pops[ca] for _, ca in cand_keys),
                dtype=np.int64, count=n_cand,
            ),
            units_of=np.fromiter(
                (mined.context_nunits[ca] for _, ca in cand_keys),
                dtype=np.int64, count=n_cand,
            ),
            groups=[
                (ca, mined.context_tvecs[ca], np.array(rows, dtype=np.int64))
                for ca, rows in by_context.items()
            ],
        )

    def _assemble_cells(
        self,
        db: TransactionDatabase,
        cand: CandidateArrays,
        counted: "list[tuple[np.ndarray, ...]]",
    ) -> CellTable:
        """Phase D — scatter the :func:`count_and_eval` results, then the
        surviving candidates into the store, keeping mining order."""
        n_sa = len(cand.index_rows)
        minority_totals = np.zeros(n_sa, dtype=np.int64)
        kept_rows = np.zeros(n_sa, dtype=bool)
        values = np.full((len(self.indexes), n_sa), np.nan)
        for rows, totals, keep, block in counted:
            minority_totals[rows] = totals
            kept_rows[rows] = keep
            values[:, rows] = block
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
        """Count and evaluate every candidate cell in-process.

        SA-bearing candidates are grouped by context and run through
        :func:`count_and_eval`: bounded batches, one counting-kernel call
        per batch, one batched kernel call per index and context slice.
        Only per-cell scalars (minority totals, index values) persist
        across batches, so peak memory is bounded by the batch size,
        not ``n_cells * n_units``.
        """
        cand = self._enumerate_candidates(db, mined)
        words, bounds = db.unit_words()
        counted = count_and_eval(
            cand.groups, words, bounds, cand.index_rows,
            self.indexes, mined.minsup_min,
        )
        return self._assemble_cells(db, cand, [counted])


class _LazyResolver:
    """Answers point queries for cells absent from the materialised cube.

    Works directly on the item covers: one ``unit_counts_of`` call
    counts the context and the minority, and :func:`eval_context_block`
    evaluates the cell as a one-row block — the fill's own kernels, so
    a resolved cell has the bits a materialised one would.  Returns
    None when the queried cell is below the builder's thresholds (so
    lazy answers agree with materialisation).
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

        The item covers, the unit grouping and the unit-ordered item
        rows are cached on first use without a lock; building them up
        front (the serving layer calls this) makes every later resolver
        call a pure read, safe for concurrent reader threads.
        """
        self._db.unit_words()

    def __call__(self, key: CellKey) -> "CellStats | None":
        sa_part, ca_part = key
        counts = self._db.unit_counts_of([ca_part, sa_part | ca_part])
        tvec = counts[0]
        population = int(tvec.sum())
        if population < self._minsup_pop:
            return None
        specs = self._builder.indexes
        # A context-only cell is a navigation cell: indexes undefined.
        minority = population
        indexes = {spec.name: float("nan") for spec in specs}
        if sa_part:
            totals, keep, values = eval_context_block(
                specs, tvec, counts[1:], self._minsup_min
            )
            if not keep[0]:
                return None
            minority = int(totals[0])
            indexes = {
                spec.name: float(values[j, 0])
                for j, spec in enumerate(specs)
            }
        return CellStats(
            key=key,
            population=population,
            minority=minority,
            n_units=int((tvec > 0).sum()),
            indexes=indexes,
        )
