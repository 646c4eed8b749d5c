"""Closed-itemset utilities.

An itemset is *closed* when no strict superset has the same support.
SCube materialises cube cells only for closed coordinate itemsets
(paper §2, citing the SegregationDataCubeBuilder of the JIIS paper): a
non-closed coordinate selects exactly the same population as its closure,
so its cell would be redundant.

Closed itemsets are never mined directly.  The cube builder mines the
complete capped lattice and keeps its closed part with
:func:`filter_closed`; the incremental engine re-derives closedness with
:func:`closure_flags`, only for candidates whose cover may have changed.

Given the complete dictionary of frequent itemsets, closedness has a
local characterisation that avoids cover scans: X is closed iff no
(X ∪ {i}) — which is itself frequent whenever its support equals
support(X) — appears in the dictionary with the same support.
"""

from __future__ import annotations

from collections import defaultdict

from repro.itemsets.coverset import Cover, cover_matrix, popcount_rows
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]


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


# ----------------------------------------------------------------------
# Capped closedness (the incremental engine's pass)
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
# Closedness of X is a function of ``cover(X)`` and the *static*
# per-item covers only (``cover(X) ⊆ active`` already, so intersecting
# with restricted item covers equals intersecting with unrestricted
# ones).  The incremental engine therefore keeps the previous date's
# flag of every X holding an item that no changed row carries: such an
# X's cover is unchanged.  Every other candidate goes through
# :func:`closure_flags`.


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

