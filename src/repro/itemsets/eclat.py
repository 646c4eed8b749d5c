"""Eclat: vertical (cover-based) frequent-itemset mining.

This is the system's one miner: its depth-first search carries the
*cover* (transaction mask) of every itemset, which the
SegregationDataCubeBuilder needs anyway to split supports into per-unit
counts.  Covers are packed ``uint64`` bitmaps
(:class:`~repro.itemsets.coverset.CoverSet`), so intersection is a
word-wise AND and support a vectorized popcount.

The search tree decomposes by *root item*: once the frequent 1-items are
sorted by ascending support, the subtree rooted at position ``pos`` only
touches the root's cover and the tail ``frequent[pos + 1:]`` — no state
is shared between subtrees.  The module therefore exposes the DFS as a
per-root kernel (:func:`mine_root`) over a shared
:func:`frequent_triples` preparation step; ``mine_eclat`` is a thin
sequential loop over that kernel, and its ``workers=`` path
(:mod:`repro.itemsets.parallel`) fans the *identical* kernel across
worker processes, so the parallel mine is bit-identical — same
itemsets, same emission order, same supports — to the sequential one.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import MiningError
from repro.itemsets.coverset import Cover
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]

#: One frequent 1-item: ``(item id, cover, support)``.
FrequentTriple = "tuple[int, Cover, int]"

#: Emission callback: ``record(itemset_tuple, cover, support)``.
Record = "Callable[[tuple[int, ...], Cover, int], None]"


def frequent_triples(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    within: "Cover | None" = None,
) -> "list[FrequentTriple]":
    """The frequent 1-items as ``(item, cover, support)``, support-sorted.

    This is the shared preparation step of every eclat entry point: the
    DFS roots in ascending-support order (the classic heuristic that
    keeps conditional covers small near the root).  Each item's support
    is computed exactly once and reused for both the frequency filter
    and the ordering.

    With ``within=`` the covers are intersected with the given root
    cover first; an item's restricted support can only shrink, so
    candidates are pre-pruned by the database's cached unrestricted
    supports before paying for any AND — the incremental engine calls
    this once per affected context on the same restricted view, and the
    cache makes those calls share one support scan instead of
    recomputing per context.
    """
    covers = db.covers()
    candidate_ids = list(items) if items is not None else list(range(db.n_items))

    frequent: "list[FrequentTriple]" = []
    if within is None:
        supports = db.cached_item_supports()
        for i in candidate_ids:
            support = int(supports[i])
            if support >= minsup:
                frequent.append((i, covers[i], support))
    else:
        base_supports = db.cached_item_supports()
        for i in candidate_ids:
            if base_supports[i] < minsup:
                # support(cover & within) <= support(cover): hopeless
                # items never pay for the intersection.
                continue
            cover = covers[i] & within
            support = cover.support()
            if support >= minsup:
                frequent.append((i, cover, support))
    frequent.sort(key=lambda triple: triple[2])
    return frequent


def _dfs(
    prefix: "tuple[int, ...]",
    prefix_cover: Cover,
    tail: "list[FrequentTriple]",
    minsup: int,
    max_len: "int | None",
    record: "Record",
) -> None:
    """The eclat DFS over one conditional tail (the single shared kernel)."""
    if max_len is not None and len(prefix) >= max_len:
        return
    for pos, (item, item_cover, _) in enumerate(tail):
        cover = prefix_cover & item_cover
        support = cover.support()
        if support < minsup:
            continue
        itemset = prefix + (item,)
        record(itemset, cover, support)
        _dfs(itemset, cover, tail[pos + 1:], minsup, max_len, record)


def mine_root(
    frequent: "list[FrequentTriple]",
    pos: int,
    minsup: int,
    max_len: "int | None",
    record: "Record",
) -> None:
    """Emit the subtree rooted at ``frequent[pos]`` in sequential order.

    ``mine_eclat`` is exactly ``for pos in range(len(frequent)):
    mine_root(...)``; a parallel driver may call the same kernel for any
    subset of root positions and splice the per-root emissions back in
    position order to reproduce the sequential output bit for bit.
    """
    item, item_cover, support = frequent[pos]
    record((item,), item_cover, support)
    _dfs((item,), item_cover, frequent[pos + 1:], minsup, max_len, record)


def mine_eclat(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
    with_covers: bool = False,
    within: "Cover | None" = None,
    workers: "int | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """Mine all frequent itemsets (support >= ``minsup``), depth-first.

    Parameters
    ----------
    items:
        Restrict mining to these item ids (default: all items).
    max_len:
        Maximum itemset length.
    with_covers:
        When True the result maps itemsets to their covers
        (support = ``cover.support()``); otherwise to integer supports.
    within:
        Optional root cover: supports and covers are evaluated inside
        this transaction subset only (every item cover is intersected
        with it before the DFS).  The incremental cube fill uses this
        to mine the SA refinements of one context without touching
        rows outside the context's cover.
    workers:
        When given, fan the root subtrees across a process pool (see
        :mod:`repro.itemsets.parallel`); the result —
        itemsets, emission order, supports, covers — is bit-identical
        to the sequential mine.  ``None`` (default) mines in-process.
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    if workers is not None:
        from repro.itemsets.parallel import mine_eclat_parallel

        return mine_eclat_parallel(
            db, minsup, items=items, max_len=max_len,
            with_covers=with_covers, within=within, workers=workers,
        )
    frequent = frequent_triples(db, minsup, items=items, within=within)

    out_covers: dict[Itemset, Cover] = {}
    out_supports: dict[Itemset, int] = {}

    def record(itemset: "tuple[int, ...]", cover: Cover, support: int) -> None:
        key = frozenset(itemset)
        if with_covers:
            out_covers[key] = cover
        else:
            out_supports[key] = support

    for pos in range(len(frequent)):
        mine_root(frequent, pos, minsup, max_len, record)
    return out_covers if with_covers else out_supports


def _dfs_typed(
    prefix: "tuple[int, ...]",
    prefix_cover: Cover,
    n_sa: int,
    n_ca: int,
    tail: "list[FrequentTriple]",
    sa_set: "frozenset[int] | set[int]",
    minsup: int,
    max_sa: "int | None",
    max_ca: "int | None",
    record: "Record",
) -> None:
    """The typed eclat DFS kernel (per-kind caps enforced mid-search)."""
    for pos, (item, item_cover, _) in enumerate(tail):
        if item in sa_set:
            d_sa, d_ca = 1, 0
        else:
            d_sa, d_ca = 0, 1
        if max_sa is not None and n_sa + d_sa > max_sa:
            continue
        if max_ca is not None and n_ca + d_ca > max_ca:
            continue
        cover = prefix_cover & item_cover
        support = cover.support()
        if support < minsup:
            continue
        itemset = prefix + (item,)
        record(itemset, cover, support)
        _dfs_typed(itemset, cover, n_sa + d_sa, n_ca + d_ca,
                   tail[pos + 1:], sa_set, minsup, max_sa, max_ca, record)


def mine_eclat_typed(
    db: TransactionDatabase,
    minsup: int,
    sa_ids: "list[int]",
    ca_ids: "list[int]",
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
) -> "dict[Itemset, Cover]":
    """Eclat DFS constrained by per-kind item caps (the cube's lattice).

    Cube coordinates are typed: a cell has at most ``max_sa`` SA items
    and ``max_ca`` CA items.  Enforcing the caps *during* the DFS — not
    by post-filtering an unconstrained mine — keeps the search inside
    the exact coordinate lattice the cube materialises, which is where
    the builder's advantage over naive enumeration comes from (support
    pruning cuts subtrees, cover intersections are shared with the
    parent prefix).

    Returns covers for every frequent itemset within the caps,
    including the empty itemset's all-true cover.  Roots are the SA ids
    followed by the CA ids, stably sorted by support, so the emission
    order is deterministic.
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    covers = db.covers()
    supports = db.cached_item_supports()
    frequent = [
        (i, covers[i], int(supports[i]))
        for i in list(sa_ids) + list(ca_ids)
        if supports[i] >= minsup
    ]
    frequent.sort(key=lambda triple: triple[2])
    full_cover = db.full_cover()

    out: dict[Itemset, Cover] = {frozenset(): full_cover}

    def record(itemset: "tuple[int, ...]", cover: Cover, support: int) -> None:
        out[frozenset(itemset)] = cover

    _dfs_typed((), full_cover, 0, 0, frequent, set(sa_ids), minsup,
               max_sa, max_ca, record)
    return out


def closure_of(
    db: TransactionDatabase,
    cover: "Cover",
    candidate_items: "list[int] | None" = None,
) -> Itemset:
    """The closure of a cover: all items present in *every* covered row.

    For an itemset X with cover c, ``closure_of(db, c)`` is the unique
    maximal itemset with the same cover — the canonical representative the
    closed-itemset cube stores.  ``cover`` may also be a dense boolean
    array; it is packed first.
    """
    covers = db.covers()
    cover = db.as_cover(cover)
    support = cover.support()
    ids = candidate_items if candidate_items is not None else range(db.n_items)
    closed = [
        i for i in ids if (cover & covers[i]).support() == support
    ]
    return frozenset(closed)
