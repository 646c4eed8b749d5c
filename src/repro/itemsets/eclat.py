"""Eclat: vertical (cover-based) frequent-itemset mining.

This is the system's one miner: its depth-first search carries the
*cover* (transaction mask) of every itemset, which the
SegregationDataCubeBuilder needs anyway to split supports into per-unit
counts.  Covers are packed ``uint64`` bitmaps
(:class:`~repro.itemsets.coverset.CoverSet`), so intersection is a
word-wise AND and support a vectorized popcount.

One DFS kernel, :func:`_dfs_typed`, serves both entry points.  Each
node ANDs one item's cover into its prefix's cover and is kept when the
popcount reaches ``minsup``; items are typed SA or CA, and per-kind caps
prune a subtree before any AND.  The prefix is carried split into its SA
and CA items, so a mined itemset never has to be split afterwards.
:func:`mine_eclat_typed` mines the cube's typed lattice (at most
``max_sa`` SA and ``max_ca`` CA items) keyed by that split, the cell
key; :func:`mine_eclat` runs the same kernel with every item of one
kind, so ``max_len`` is that kind's cap.  Both take their roots from
:func:`frequent_triples` (the frequent 1-items, sorted by ascending
support) and run in-process.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import MiningError
from repro.itemsets.coverset import Cover
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]

#: One frequent 1-item: ``(item id, cover, support)``.
FrequentTriple = "tuple[int, Cover, int]"

#: Emission callback: ``record(sa_items, ca_items, cover, support)``.
Record = "Callable[[tuple[int, ...], tuple[int, ...], Cover, int], None]"


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


def _dfs_typed(
    sa: "tuple[int, ...]",
    ca: "tuple[int, ...]",
    prefix_cover: Cover,
    tail: "list[FrequentTriple]",
    sa_set: "frozenset[int]",
    minsup: int,
    max_sa: "int | None",
    max_ca: "int | None",
    record: "Record",
) -> None:
    """The eclat DFS over one conditional tail: the one mining kernel.

    The prefix is carried split into its SA items ``sa`` and its CA
    items ``ca``.  An item of ``tail`` is an SA item when it is in
    ``sa_set``, else a CA item; the per-kind caps ``max_sa`` /
    ``max_ca`` are enforced mid-search, so a subtree past a cap is
    never entered, and every frequent node is recorded already split.
    """
    sa_room = max_sa is None or len(sa) < max_sa
    ca_room = max_ca is None or len(ca) < max_ca
    for pos, (item, item_cover, _) in enumerate(tail):
        if item in sa_set:
            if not sa_room:
                continue
            next_sa, next_ca = sa + (item,), ca
        else:
            if not ca_room:
                continue
            next_sa, next_ca = sa, ca + (item,)
        cover = prefix_cover & item_cover
        support = cover.support()
        if support < minsup:
            continue
        record(next_sa, next_ca, cover, support)
        _dfs_typed(next_sa, next_ca, cover, tail[pos + 1:], sa_set, minsup,
                   max_sa, max_ca, record)


def mine_eclat(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
    with_covers: bool = False,
    within: "Cover | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """Mine all frequent itemsets (support >= ``minsup``), depth-first.

    The typed DFS with every item of one kind, so ``max_len`` is that
    kind's cap.  The empty itemset is not reported.

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
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = frequent_triples(db, minsup, items=items, within=within)
    out: "dict[Itemset, int] | dict[Itemset, Cover]" = {}

    def record(sa: "tuple[int, ...]", ca: "tuple[int, ...]", cover: Cover,
               support: int) -> None:
        out[frozenset(ca)] = cover if with_covers else support

    # Every item is a CA item here: ``max_len`` is the CA cap.
    root = db.full_cover() if within is None else within
    _dfs_typed((), (), root, frequent, frozenset(), minsup, None, max_len,
               record)
    return out


def mine_eclat_typed(
    db: TransactionDatabase,
    minsup: int,
    sa_ids: "list[int]",
    ca_ids: "list[int]",
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
) -> "dict[tuple[Itemset, Itemset], Cover]":
    """Eclat DFS constrained by per-kind item caps (the cube's lattice).

    Cube coordinates are typed: a cell has at most ``max_sa`` SA items
    and ``max_ca`` CA items.  Enforcing the caps *during* the DFS — not
    by post-filtering an unconstrained mine — keeps the search inside
    the exact coordinate lattice the cube materialises, which is where
    the builder's advantage over naive enumeration comes from (support
    pruning cuts subtrees, cover intersections are shared with the
    parent prefix).

    Returns the cover of every frequent itemset within the caps, keyed
    by its ``(SA part, CA part)`` split — the cell key, carried down the
    DFS so no itemset is split afterwards — including the empty
    itemset's all-true cover.  Roots are the SA ids followed by the CA
    ids, stably sorted by support, so the emission order is
    deterministic.
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = frequent_triples(
        db, minsup, items=list(sa_ids) + list(ca_ids)
    )
    full_cover = db.full_cover()
    out: "dict[tuple[Itemset, Itemset], Cover]" = {
        (frozenset(), frozenset()): full_cover
    }

    def record(sa: "tuple[int, ...]", ca: "tuple[int, ...]", cover: Cover,
               support: int) -> None:
        out[(frozenset(sa), frozenset(ca))] = cover

    _dfs_typed((), (), full_cover, frequent, frozenset(sa_ids), minsup,
               max_sa, max_ca, record)
    return out
