"""Closed-itemset utilities.

An itemset is *closed* when no strict superset has the same support.
SCube materialises cube cells only for closed coordinate itemsets
(paper §2, citing the SegregationDataCubeBuilder of the JIIS paper): a
non-closed coordinate selects exactly the same population as its closure,
so its cell would be redundant.

Given the complete dictionary of frequent itemsets, closedness has a
local characterisation that avoids cover scans: X is closed iff no
(X ∪ {i}) — which is itself frequent whenever its support equals
support(X) — appears in the dictionary with the same support.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.errors import MiningError
from repro.itemsets.coverset import (
    Cover,
    cover_digest,
    cover_matrix,
    popcount_rows,
)
from repro.itemsets.eclat import closure_of, frequent_triples, mine_root
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]


def mine_closed(
    db: TransactionDatabase,
    minsup: int,
    items: "list[int] | None" = None,
    with_covers: bool = False,
    workers: "int | None" = None,
) -> "dict[Itemset, int] | dict[Itemset, Cover]":
    """Mine closed frequent itemsets directly from cover classes.

    Runs the full eclat DFS and groups emissions by cover identity (the
    16-byte :func:`~repro.itemsets.coverset.cover_digest`): every
    itemset of a class selects the same transactions, and — because the
    enumeration is complete — the union of a class's members is its
    closure, the unique maximal member.  The result therefore equals
    ``filter_closed(mine_eclat(db, minsup, items=items))`` as a dict
    (property-tested), without materialising the non-closed entries in
    the output.

    Emission *order* is the first appearance of any class member in DFS
    order (a class is created when its first — possibly non-closed —
    member is emitted), which can differ from ``filter_closed``'s order
    (each closure at its own emission position); it is what the
    ``workers=`` path (:mod:`repro.itemsets.parallel`) reproduces
    bit-identically for every worker count.
    """
    if workers is not None:
        from repro.itemsets.parallel import mine_closed_parallel

        return mine_closed_parallel(
            db, minsup, items=items, with_covers=with_covers,
            workers=workers,
        )
    if minsup < 1:
        raise MiningError(f"minsup must be >= 1, got {minsup}")
    frequent = frequent_triples(db, minsup, items=items)
    # digest -> [member-item union, support, representative cover]
    classes: "dict[bytes, list]" = {}

    def record(its, cover, support):
        entry = classes.get(cover_digest(cover))
        if entry is None:
            classes[cover_digest(cover)] = [
                set(its), support, cover if with_covers else None,
            ]
        else:
            entry[0].update(its)

    for pos in range(len(frequent)):
        mine_root(frequent, pos, minsup, None, record)
    if with_covers:
        return {
            frozenset(e[0]): e[2] for e in classes.values()
        }
    return {frozenset(e[0]): e[1] for e in classes.values()}


def filter_closed(supports: dict[Itemset, int]) -> dict[Itemset, int]:
    """Keep only the closed itemsets of a complete frequent-itemset dict.

    Completeness matters: ``supports`` must contain *every* frequent
    itemset above the mining threshold (the output of any full miner),
    otherwise an absorbing superset may be missed.
    """
    by_size: dict[int, list[Itemset]] = defaultdict(list)
    for itemset in supports:
        by_size[len(itemset)].append(itemset)
    not_closed: set[Itemset] = set()
    for size, itemsets in by_size.items():
        if size == 0:
            continue
        for itemset in itemsets:
            support = supports[itemset]
            for item in itemset:
                subset = itemset - {item}
                if subset and supports.get(subset) == support:
                    not_closed.add(subset)
    return {k: v for k, v in supports.items() if k not in not_closed}


def filter_maximal(supports: dict[Itemset, int]) -> dict[Itemset, int]:
    """Keep only maximal frequent itemsets (no frequent strict superset)."""
    not_maximal: set[Itemset] = set()
    for itemset in supports:
        for item in itemset:
            subset = itemset - {item}
            if subset in supports:
                not_maximal.add(subset)
    return {k: v for k, v in supports.items() if k not in not_maximal}


def verify_closed(
    db: TransactionDatabase, itemsets: "list[Itemset]"
) -> dict[Itemset, bool]:
    """Ground-truth closedness via the closure operator (test oracle)."""
    result = {}
    for itemset in itemsets:
        cover = db.cover_of(itemset)
        result[itemset] = closure_of(db, cover) == itemset
    return result


def closure_map(
    db: TransactionDatabase, supports: dict[Itemset, int]
) -> dict[Itemset, Itemset]:
    """Map every frequent itemset to its closure (computed from covers)."""
    out: dict[Itemset, Itemset] = {}
    for itemset in supports:
        cover = db.cover_of(itemset)
        out[itemset] = closure_of(db, cover)
    return out


def equivalence_classes(
    closures: dict[Itemset, Itemset]
) -> dict[Itemset, list[Itemset]]:
    """Group itemsets by their closure (the cover-equivalence classes)."""
    classes: dict[Itemset, list[Itemset]] = defaultdict(list)
    for itemset, closed in closures.items():
        classes[closed].append(itemset)
    return dict(classes)


def support_of_cover(cover: "Cover | np.ndarray") -> int:
    """Support of a cover or of a dense boolean array."""
    if isinstance(cover, Cover):
        return cover.support()
    return int(np.asarray(cover, dtype=bool).sum())


# ----------------------------------------------------------------------
# Capped closedness + closure diffs (the incremental engine's pass)
# ----------------------------------------------------------------------
#
# The cube's closed filter is *capped*: the dictionary of candidates is
# bounded by ``max_sa_items`` / ``max_ca_items``, so "closed" there means
# "no strict superset WITHIN THE CAPS has the same support".  Because
# equal-support supersets chain down to single-item extensions (support
# is antimonotone, and every subset of a capped itemset is capped), the
# predicate has a local form: X is capped-closed iff no single item
# ``i ∉ X`` whose kind still has cap room satisfies
# ``support(X ∪ {i}) == support(X)``.  The empty itemset (the cube's
# root context/coordinate) is always kept, mirroring ``filter_closed``
# which never marks the empty subset non-closed.
#
# The incremental hook is :func:`closure_diff`: closedness of X is a
# function of ``cover(X)`` and the *static* per-item covers only
# (``cover(X) ⊆ active`` already, so intersecting with restricted item
# covers equals intersecting with unrestricted ones) — hence if
# ``cover_digest(cover(X))`` is unchanged between two dates, X's
# closedness flag is unchanged and the previous flag can be reused
# without touching any cover.


def closure_flags(
    db: TransactionDatabase,
    candidates: "dict[Itemset, Cover]",
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
) -> "dict[Itemset, bool]":
    """Capped closedness of each candidate itemset, vectorized.

    Agrees with membership in ``filter_closed`` over the complete capped
    frequent dictionary (see the module note above), without mining
    that dictionary.  All item covers are packed into one ``uint64``
    matrix — SA items first, then CA items — and one AND+popcount sweep
    per candidate finds every absorbing item
    (``|cover(X) ∩ cover(i)| == support(X)``); the candidate is closed
    iff no absorbing item outside X has cap room for its kind.
    """
    if not candidates:
        return {}
    dictionary = db.dictionary
    all_ids = list(dictionary.sa_ids) + list(dictionary.ca_ids)
    n_sa = len(dictionary.sa_ids)
    row_of = {item: row for row, item in enumerate(all_ids)}
    covers = db.covers()
    matrix = cover_matrix([covers[item] for item in all_ids], len(db))
    out: "dict[Itemset, bool]" = {}
    for itemset, cover in candidates.items():
        sa_part, ca_part = dictionary.split(itemset)
        sa_room = max_sa is None or len(sa_part) < max_sa
        ca_room = max_ca is None or len(ca_part) < max_ca
        if not itemset or not (sa_room or ca_room) or not len(all_ids):
            out[itemset] = True
            continue
        absorbing = popcount_rows(
            matrix & cover.words[None, :]
        ) == cover.support()
        absorbing[[row_of[item] for item in itemset]] = False
        if not sa_room:
            absorbing[:n_sa] = False
        if not ca_room:
            absorbing[n_sa:] = False
        out[itemset] = not bool(absorbing.any())
    return out


def closed_under_caps(
    db: TransactionDatabase,
    itemset: Itemset,
    cover: "Cover | None" = None,
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
) -> bool:
    """Scalar capped-closedness reference (via the closure operator)."""
    if not itemset:
        return True
    if cover is None:
        cover = db.cover_of(itemset)
    dictionary = db.dictionary
    sa_part, ca_part = dictionary.split(itemset)
    eligible: "list[int]" = []
    if max_sa is None or len(sa_part) < max_sa:
        eligible.extend(dictionary.sa_ids)
    if max_ca is None or len(ca_part) < max_ca:
        eligible.extend(dictionary.ca_ids)
    eligible = [i for i in eligible if i not in itemset]
    if not eligible:
        return True
    return not closure_of(db, cover, candidate_items=eligible)


def closure_diff(
    db: TransactionDatabase,
    candidates: "dict[Itemset, Cover]",
    previous: "dict[Itemset, tuple[bytes, bool]] | None" = None,
    max_sa: "int | None" = None,
    max_ca: "int | None" = None,
) -> "dict[Itemset, tuple[bytes, bool]]":
    """Re-derive closedness only where the cover digest changed.

    Maps every candidate to ``(cover_digest, closed_flag)``.  A
    candidate whose digest matches its ``previous`` entry keeps the
    previous flag untouched (closedness depends only on the cover and
    the static item covers — see the module note); the rest go through
    one bulk :func:`closure_flags` pass.
    """
    previous = previous or {}
    out: "dict[Itemset, tuple[bytes, bool]]" = {}
    pending: "dict[Itemset, tuple[bytes, Cover]]" = {}
    for itemset, cover in candidates.items():
        digest = cover_digest(cover)
        if not itemset:
            out[itemset] = (digest, True)
            continue
        prev = previous.get(itemset)
        if prev is not None and prev[0] == digest:
            out[itemset] = (digest, prev[1])
        else:
            pending[itemset] = (digest, cover)
    if pending:
        flags = closure_flags(
            db, {k: cover for k, (_, cover) in pending.items()},
            max_sa=max_sa, max_ca=max_ca,
        )
        for itemset, (digest, _) in pending.items():
            out[itemset] = (digest, flags[itemset])
    return out
