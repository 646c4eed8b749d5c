"""Parallel eclat: fan the DFS roots across processes.

The eclat search tree decomposes by root item (see
:mod:`repro.itemsets.eclat`): the subtree below ``frequent[pos]`` reads
only the root's cover and the tail ``frequent[pos + 1:]``, so disjoint
root ranges can mine concurrently with no shared state.  This module is
the ``workers=`` backend of :func:`~repro.itemsets.eclat.mine_eclat`
and :func:`~repro.itemsets.closed.mine_closed`, run on the package's one
shared-memory pool (:mod:`repro._pool`):

* the parent computes the frequent 1-items (including the ``within=``
  restriction — root covers ship already intersected, so workers never
  see the restriction at all) and packs their covers into **one**
  ``(n_frequent, n_words)`` uint64 matrix, shared with every worker;
* root positions are partitioned greedy largest-first by estimated
  subtree cost — root support × candidate-sibling count — so one heavy
  root cannot serialise the mine behind it (:func:`partition_roots`);
* every worker rebuilds its ``frequent`` list in the database's own
  codec over the shared words and runs the *identical* sequential
  kernel (:func:`~repro.itemsets.eclat.mine_root`) over its positions;
* the parent splices the per-root emission lists back in root-position
  order, which — because every itemset is emitted in exactly one root
  subtree — reproduces the sequential emission order **bit for bit**:
  same itemsets, same dict order, same supports, same cover bits, for
  any worker count.

Closed mode is the one place dedup is global: each worker keeps a local
closure map keyed by the packed cover digest (classes of equal covers;
the class's item union is its closure) and the parent merge-dedups the
per-worker maps vectorized — ``np.bitwise_or.at`` unions the item
masks, ``np.maximum.at`` keeps the max support (supports inside a class
are equal, so this is a no-op safety), ``np.minimum.at`` keeps the
earliest global emission key — then orders classes by that key, which
is exactly sequential ``mine_closed``'s insertion order.

Recorded covers are exported — copied out of the shared matrix — at
emission time, so no result references a segment after its task
returns.  A raising worker surfaces as
:class:`~repro.errors.MiningError`.
"""

from __future__ import annotations

import numpy as np

from repro import _pool
from repro.errors import MiningError
from repro.itemsets import eclat
from repro.itemsets.coverset import (
    Cover,
    CoverSet,
    cover_digest,
    cover_matrix,
    get_codec,
)
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]


def partition_roots(
    supports: "list[int]", n_parts: int
) -> "list[list[int]]":
    """Greedy balanced partition of root positions by subtree cost.

    The cost estimate for root ``pos`` is ``support * siblings`` — the
    root's support times the number of candidate tail items — the
    classic proxy for eclat subtree work (a high-support root near the
    front of the sorted order has both a heavy cover and a long tail).
    """
    n = len(supports)
    return _pool.balanced_partition(
        [supports[pos] * (n - pos - 1) + 1 for pos in range(n)], n_parts
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _export_cover(cover: Cover) -> Cover:
    """A recorded cover with no shared-memory backing.

    DFS intersection results own their words already; only depth-1 root
    covers (views straight into the shared matrix) need copying.
    """
    if isinstance(cover, CoverSet) and not cover.words.flags.owndata:
        return CoverSet(cover.words.copy(), cover.n_bits)
    return cover


def _frequent_from_matrix(matrix: np.ndarray, cfg: dict) -> list:
    """Rebuild the parent's ``frequent`` triples over the shared words.

    Covers come back in the database's own codec, so the worker runs
    the very same kernel over the very same cover types as the
    sequential mine (packed covers view the segment zero-copy; bool /
    ewah covers are re-encoded from the shared bits).
    """
    n_bits = cfg["n_bits"]
    covers = [CoverSet(words, n_bits) for words in matrix]
    if cfg["codec"] != "packed":
        cls = get_codec(cfg["codec"])
        covers = [cls.from_bools(cover.to_bools()) for cover in covers]
    return list(zip(cfg["items"], covers, cfg["supports"]))


def _mine_partition(positions: "list[int]", cfg: dict, arrays: dict):
    """Pool task: mine one partition's root positions."""
    frequent = _frequent_from_matrix(arrays["covers"], cfg)
    if cfg["mode"] == "closed":
        return _closed_classes(frequent, positions, cfg)
    with_covers = cfg["with_covers"]
    out = []
    for pos in positions:
        emissions: list = []

        def record(its, cover, support):
            emissions.append(
                (its, _export_cover(cover) if with_covers else support)
            )

        eclat.mine_root(frequent, pos, cfg["minsup"], cfg["max_len"], record)
        out.append((pos, emissions))
    return out


def _closed_classes(frequent: list, positions: "list[int]", cfg: dict):
    """A local closure map for one partition's roots, as flat arrays."""
    mask_bytes = cfg["mask_bytes"]
    with_covers = cfg["with_covers"]
    classes: "dict[bytes, list]" = {}
    for pos in positions:
        ordinal = [0]

        def record(its, cover, support, pos=pos, ordinal=ordinal):
            key = cover_digest(cover)
            # Global emission rank of this itemset: root position in the
            # high bits, emission ordinal inside the root subtree below.
            order_key = (pos << 40) | ordinal[0]
            ordinal[0] += 1
            mask = 0
            for i in its:
                mask |= 1 << i
            entry = classes.get(key)
            if entry is None:
                classes[key] = [
                    mask, support, order_key,
                    _export_cover(cover) if with_covers else None,
                ]
            else:
                entry[0] |= mask
                if support > entry[1]:
                    entry[1] = support
                if order_key < entry[2]:
                    entry[2] = order_key

        eclat.mine_root(frequent, pos, cfg["minsup"], None, record)

    k = len(classes)
    if k:
        digests = np.frombuffer(
            b"".join(classes.keys()), dtype=np.uint8
        ).reshape(k, 16)
        masks = np.frombuffer(
            b"".join(
                e[0].to_bytes(mask_bytes, "little")
                for e in classes.values()
            ),
            dtype=np.uint8,
        ).reshape(k, mask_bytes)
    else:
        digests = np.zeros((0, 16), dtype=np.uint8)
        masks = np.zeros((0, mask_bytes), dtype=np.uint8)
    supports = np.fromiter(
        (e[1] for e in classes.values()), dtype=np.int64, count=k
    )
    order_keys = np.fromiter(
        (e[2] for e in classes.values()), dtype=np.int64, count=k
    )
    covers = [e[3] for e in classes.values()] if with_covers else None
    return (digests, masks, supports, order_keys, covers)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def _mine_roots(
    db: TransactionDatabase, frequent: list, cfg: dict,
    workers: "int | None",
) -> list:
    """Share the root covers and mine the root partitions in the pool.

    The pool runs even for ``workers=1``, so a one-worker mine
    exercises the genuine multiprocess path (the parity baseline in
    tests).
    """
    supports = [support for _, _, support in frequent]
    cfg = {
        **cfg,
        "n_bits": len(db),
        "codec": db.codec,
        "items": [item for item, _, _ in frequent],
        "supports": supports,
    }
    covers = cover_matrix([cover for _, cover, _ in frequent], len(db))
    return _pool.run_pool(
        _mine_partition,
        partition_roots(supports, _pool.resolve_workers(workers)),
        {"covers": covers}, cfg, MiningError, "mine",
    )


def mine_eclat_parallel(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
    with_covers: bool = False,
    within: "Cover | None" = None,
    workers: "int | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """``mine_eclat`` across a worker pool; bit-identical output."""
    frequent = eclat.frequent_triples(db, minsup, items=items, within=within)
    if not frequent:
        return {}
    cfg = {
        "mode": "plain",
        "minsup": minsup,
        "max_len": max_len,
        "with_covers": with_covers,
    }
    by_pos = {
        pos: emissions
        for part in _mine_roots(db, frequent, cfg, workers)
        for pos, emissions in part
    }
    return {
        frozenset(its): value
        for pos in sorted(by_pos)
        for its, value in by_pos[pos]
    }


def mine_closed_parallel(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    with_covers: bool = False,
    workers: "int | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """``mine_closed`` across a worker pool; bit-identical output.

    Workers return closure classes keyed by cover digest; the parent
    merges them vectorized (item-mask unions, max support, earliest
    emission key) and emits classes in first-emission order — exactly
    the sequential insertion order, for any worker count.
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = eclat.frequent_triples(db, minsup, items=items)
    if not frequent:
        return {}
    mask_bytes = max(1, (db.n_items + 7) // 8)
    cfg = {
        "mode": "closed",
        "minsup": minsup,
        "with_covers": with_covers,
        "mask_bytes": mask_bytes,
    }
    parts = _mine_roots(db, frequent, cfg, workers)
    digests = np.concatenate([p[0] for p in parts])
    masks = np.concatenate([p[1] for p in parts])
    supports = np.concatenate([p[2] for p in parts])
    order_keys = np.concatenate([p[3] for p in parts])
    covers: "list | None" = None
    if with_covers:
        covers = [c for p in parts for c in p[4]]
    if len(digests) == 0:
        return {}

    void = np.ascontiguousarray(digests).view(
        np.dtype((np.void, digests.shape[1]))
    ).ravel()
    uniq, inverse = np.unique(void, return_inverse=True)
    k = len(uniq)
    merged_masks = np.zeros((k, mask_bytes), dtype=np.uint8)
    np.bitwise_or.at(merged_masks, inverse, masks)
    merged_supports = np.zeros(k, dtype=np.int64)
    np.maximum.at(merged_supports, inverse, supports)
    merged_keys = np.full(k, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(merged_keys, inverse, order_keys)

    cover_of_class: "dict[int, Cover]" = {}
    if with_covers:
        # Deterministic representative: the entry carrying the class's
        # earliest emission key (emission keys are globally unique, so
        # this does not depend on pool arrival order).
        for j in range(len(order_keys)):
            c = int(inverse[j])
            if order_keys[j] == merged_keys[c]:
                cover_of_class[c] = covers[j]

    bits = np.unpackbits(merged_masks, axis=1, bitorder="little")
    out: dict = {}
    for c in np.argsort(merged_keys, kind="stable"):
        itemset = frozenset(np.flatnonzero(bits[c]).tolist())
        out[itemset] = (
            cover_of_class[int(c)] if with_covers
            else int(merged_supports[c])
        )
    return out
