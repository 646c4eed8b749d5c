"""Eclat: vertical (cover-based) frequent-itemset mining, level by level.

This is the system's one miner: it carries the *cover* (transaction
mask) of every itemset, which the SegregationDataCubeBuilder needs
anyway to split supports into per-unit counts.  Covers are packed
``uint64`` bitmaps (:class:`~repro.itemsets.coverset.CoverSet`), so
intersection is a word-wise AND and support a vectorized popcount.

One kernel, :func:`_mine`, serves both entry points.  It mines a level
at a time, as Zaki's Eclat joins an equivalence class (M. J. Zaki,
"Scalable algorithms for association mining", IEEE TKDE 12(3), 2000):
the frequent itemsets of one level are the rows of one cover matrix,
and a candidate of the next level is a pair of *frequent siblings* (two
nodes with the same parent) whose later item still fits its kind's cap.
A node is therefore never extended by an item its parent found
infrequent.  Candidates are ANDed and popcounted ``_JOIN_CHUNK_WORDS``
words at a time, and only the frequent ones are written to the next
level's matrix.  Items are typed SA or CA, and every node carries its
SA and CA parts, so a mined itemset never has to be split afterwards.

Results come out in the order of a depth-first search over the same
tree: the lexicographic order of each node's path of root positions,
each node before its extensions.  The roots are :func:`frequent_triples`
(the frequent 1-items, stably sorted by ascending support), whose covers
are the first level as they are.  :func:`mine_eclat_typed` mines the
cube's typed lattice (at most ``max_sa`` SA and ``max_ca`` CA items)
keyed by the cell key; :func:`mine_eclat` runs the same kernel with
every item of one kind, so ``max_len`` is that kind's cap.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import cached_property

import numpy as np

from repro.errors import MiningError
from repro.itemsets.coverset import WORD_DTYPE, Cover, CoverSet, popcount_rows
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]

#: One frequent 1-item: ``(item id, cover, support)``.
FrequentTriple = "tuple[int, Cover, int]"

#: Word budget of one chunk of candidate covers: candidates are ANDed
#: and popcounted ``_JOIN_CHUNK_WORDS // n_words`` at a time (at least
#: one), so the two gathered blocks and their popcounts (~17 bytes a
#: word, ~1.1 MB) stay in a core's cache, as the counting kernel's do.
_JOIN_CHUNK_WORDS = 1 << 16

_EMPTY: Itemset = frozenset()


def frequent_triples(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    within: "Cover | None" = None,
) -> "list[FrequentTriple]":
    """The frequent 1-items as ``(item, cover, support)``, support-sorted.

    This is the shared preparation step of every eclat entry point: the
    roots in ascending-support order (the classic heuristic that keeps
    the covers small near the root).  Each item's support is computed
    exactly once and reused for both the frequency filter and the
    ordering.

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


class Lattice(Mapping):
    """One mine's frequent itemsets in emission order: cell key -> cover.

    Keys are ``(SA part, CA part)`` pairs of frozensets, the root
    ``(∅, ∅)`` first; ``supports[i]`` is the support of the ``i``-th
    key.  The covers stay rows of the kernel's per-level matrices and
    are wrapped as :class:`~repro.itemsets.coverset.CoverSet` views on
    access, so a caller that needs only keys and supports never makes
    one.
    """

    def __init__(
        self,
        keys: "list[tuple[Itemset, Itemset]]",
        supports: np.ndarray,
        levels: "list[np.ndarray]",
        level_of: np.ndarray,
        row_of: np.ndarray,
        n_bits: int,
    ):
        self._keys = keys
        self.supports = supports
        self._levels = levels
        self._level_of = level_of
        self._row_of = row_of
        self._n_bits = n_bits

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> "Iterator[tuple[Itemset, Itemset]]":
        return iter(self._keys)

    def __getitem__(self, key: "tuple[Itemset, Itemset]") -> Cover:
        i = self._position[key]
        level = self._levels[self._level_of[i]]
        return CoverSet(level[self._row_of[i]], self._n_bits)

    @cached_property
    def _position(self) -> "dict[tuple[Itemset, Itemset], int]":
        return {key: i for i, key in enumerate(self._keys)}

    def covers(self) -> "list[Cover]":
        """Every key's cover, in emission order."""
        levels = self._levels
        return [
            CoverSet(levels[level][row], self._n_bits)
            for level, row in zip(self._level_of.tolist(),
                                  self._row_of.tolist())
        ]


def _join(
    covers: np.ndarray,
    left: np.ndarray,
    item_covers: np.ndarray,
    right: np.ndarray,
    minsup: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """AND node ``covers[left[j]]`` with item ``item_covers[right[j]]``.

    A sibling join: the node's cover ANDed with its later sibling's is
    the node's cover ANDed with that sibling's last item's, the same
    bits, read from the small first-level matrix instead of a second
    row of the level's.  Returns ``(covers, supports, kept)`` of the
    frequent candidates, in candidate order, ``kept`` being their
    candidate positions.  Candidates are ANDed and popcounted
    ``_JOIN_CHUNK_WORDS // n_words`` at a time into two reused blocks,
    and each chunk's frequent rows are written straight into the
    result: one matrix sized for every candidate, of which only the
    written rows are ever touched.
    """
    n, n_words = len(left), covers.shape[1]
    step = max(1, _JOIN_CHUNK_WORDS // max(1, n_words))
    out = np.empty((n, n_words), dtype=WORD_DTYPE)
    supports = np.empty(n, dtype=np.int64)
    kept = np.empty(n, dtype=np.int64)
    x_block = np.empty((min(step, n), n_words), dtype=WORD_DTYPE)
    y_block = np.empty_like(x_block)
    n_out = 0
    for a in range(0, n, step):
        m = min(step, n - a)
        x, y = x_block[:m], y_block[:m]
        np.take(covers, left[a:a + m], axis=0, out=x, mode="clip")
        np.take(item_covers, right[a:a + m], axis=0, out=y, mode="clip")
        np.bitwise_and(x, y, out=x)
        chunk_supports = popcount_rows(x)
        hits = np.flatnonzero(chunk_supports >= minsup)
        b = n_out + len(hits)
        np.take(x, hits, axis=0, out=out[n_out:b], mode="clip")
        supports[n_out:b] = chunk_supports[hits]
        kept[n_out:b] = hits + a
        n_out = b
    return out[:n_out], supports[:n_out], kept[:n_out]


def _mine(
    root: Cover,
    tail: "list[FrequentTriple]",
    sa_set: "frozenset[int]",
    minsup: int,
    max_sa: "int | None",
    max_ca: "int | None",
) -> Lattice:
    """The level-wise sibling-join kernel: the one mining kernel.

    ``root`` is the empty itemset's cover and ``tail`` the frequent
    1-items inside it (support-sorted).  An item is an SA item when it
    is in ``sa_set``, else a CA item; a node takes an item only while
    that kind is below its cap (``None`` = no cap).  Level ``k`` keeps,
    per node, its parent's position in level ``k - 1``, its last item's
    root position and its SA item count; siblings are contiguous and in
    root order, so the candidates are the pairs of a node with each
    later node of its sibling run.
    """
    no_cap = len(tail) + 1
    cap_sa = no_cap if max_sa is None else max_sa
    cap_ca = no_cap if max_ca is None else max_ca
    tail = [t for t in tail if (cap_sa if t[0] in sa_set else cap_ca) > 0]
    is_sa = np.array([t[0] in sa_set for t in tail], dtype=bool)
    singles = [frozenset((t[0],)) for t in tail]

    item_covers = np.empty((len(tail), len(root.words)), dtype=WORD_DTYPE)
    for r, (_, cover, _) in enumerate(tail):
        item_covers[r] = cover.words
    level = item_covers
    levels = [root.words[None, :], level]
    supports = [np.array([root.support()], dtype=np.int64),
                np.array([t[2] for t in tail], dtype=np.int64)]
    parents = [np.zeros(1, dtype=np.int64),
               np.zeros(len(tail), dtype=np.int64)]
    kinds = is_sa.tolist()
    keys = [
        [(_EMPTY, _EMPTY)],
        [(s, _EMPTY) if sa else (_EMPTY, s) for s, sa in zip(singles, kinds)],
    ]
    last = np.arange(len(tail), dtype=np.int64)
    n_sa = is_sa.astype(np.int64)
    # The deepest itemset the caps and the items allow.
    max_depth = (min(cap_sa, int(n_sa.sum()))
                 + min(cap_ca, len(tail) - int(n_sa.sum())))
    depth = 1
    while len(last) > 1 and depth < max_depth:
        parent = parents[-1]
        n = len(parent)
        # Node i pairs with each later node of its sibling run.
        run_end = np.searchsorted(parent, parent, side="right")
        later = run_end - np.arange(n) - 1
        left = np.repeat(np.arange(n), later)
        first_pair = np.repeat(np.cumsum(later) - later, later)
        right = left + 1 + np.arange(len(left)) - first_pair
        room = np.where(is_sa[last[right]], n_sa[left] < cap_sa,
                        depth - n_sa[left] < cap_ca)
        left, right = left[room], right[room]
        if not len(left):
            break
        level, level_supports, kept = _join(
            level, left, item_covers, last[right], minsup
        )
        parent, last = left[kept], last[right[kept]]
        n_sa = n_sa[parent] + is_sa[last]
        parent_keys = map(keys[-1].__getitem__, parent.tolist())
        keys.append([
            (sa | singles[r], ca) if kinds[r] else (sa, ca | singles[r])
            for (sa, ca), r in zip(parent_keys, last.tolist())
        ])
        levels.append(level)
        supports.append(level_supports)
        parents.append(parent)
        depth += 1
    return _in_preorder(keys, supports, levels, parents, len(root))


def _in_preorder(
    keys: "list[list[tuple[Itemset, Itemset]]]",
    supports: "list[np.ndarray]",
    levels: "list[np.ndarray]",
    parents: "list[np.ndarray]",
    n_bits: int,
) -> Lattice:
    """Lay the levels out in depth-first preorder.

    A node's subtree size is one plus its children's; a node's preorder
    position is its parent's plus one plus the subtree sizes of its
    earlier siblings.
    """
    sizes = [np.ones(len(level), dtype=np.int64) for level in levels]
    for k in range(len(levels) - 1, 0, -1):
        sizes[k - 1] += np.bincount(
            parents[k], weights=sizes[k], minlength=len(levels[k - 1])
        ).astype(np.int64)
    position = [np.zeros(1, dtype=np.int64)]
    for k in range(1, len(levels)):
        before = np.cumsum(sizes[k]) - sizes[k]
        first = np.searchsorted(parents[k], parents[k], side="left")
        position.append(
            position[k - 1][parents[k]] + 1 + before - before[first]
        )
    n = sum(len(level) for level in levels)
    level_of = np.empty(n, dtype=np.int64)
    row_of = np.empty(n, dtype=np.int64)
    ordered_supports = np.empty(n, dtype=np.int64)
    ordered_keys: "list[tuple[Itemset, Itemset] | None]" = [None] * n
    for k, at in enumerate(position):
        level_of[at] = k
        row_of[at] = np.arange(len(at))
        ordered_supports[at] = supports[k]
        for p, key in zip(at.tolist(), keys[k]):
            ordered_keys[p] = key
    return Lattice(ordered_keys, ordered_supports, levels, level_of, row_of,
                   n_bits)


def mine_eclat(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
    with_covers: bool = False,
    within: "Cover | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """Mine all frequent itemsets (support >= ``minsup``).

    The typed kernel with every item of one kind, so ``max_len`` is that
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
        with it once, in :func:`frequent_triples`).  The incremental
        cube fill uses this to mine the SA refinements of one context
        without touching rows outside the context's cover.
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = frequent_triples(db, minsup, items=items, within=within)
    root = db.full_cover() if within is None else within
    # Every item is a CA item here: ``max_len`` is the CA cap.
    lattice = _mine(root, frequent, frozenset(), minsup, None, max_len)
    itemsets = [ca for _, ca in lattice][1:]
    if with_covers:
        return dict(zip(itemsets, lattice.covers()[1:]))
    return dict(zip(itemsets, lattice.supports[1:].tolist()))


def mine_eclat_typed(
    db: TransactionDatabase,
    minsup: int,
    sa_ids: "list[int]",
    ca_ids: "list[int]",
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
) -> Lattice:
    """The cube's lattice: frequent itemsets within per-kind item caps.

    Cube coordinates are typed: a cell has at most ``max_sa`` SA items
    and ``max_ca`` CA items.  Enforcing the caps *during* the search —
    not by post-filtering an unconstrained mine — keeps it inside the
    exact coordinate lattice the cube materialises, which is where the
    builder's advantage over naive enumeration comes from (support
    pruning cuts subtrees, a candidate's cover is the AND of two
    sibling covers).

    Returns the :class:`Lattice` of every frequent itemset within the
    caps, keyed by its ``(SA part, CA part)`` split — the cell key,
    carried down the levels so no itemset is split afterwards —
    including the empty itemset's all-true cover.  Roots are the SA ids
    followed by the CA ids, stably sorted by support, so the emission
    order is deterministic.
    """
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = frequent_triples(
        db, minsup, items=list(sa_ids) + list(ca_ids)
    )
    return _mine(db.full_cover(), frequent, frozenset(sa_ids), minsup,
                 max_sa, max_ca)
