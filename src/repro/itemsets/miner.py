"""Mining façade: support thresholds plus one call over eclat.

:func:`mine` normalises a relative or absolute support threshold, runs
the eclat miner (:mod:`repro.itemsets.eclat`) and applies the optional
closed and length filters; :func:`absolute_minsup` is the threshold
rule every layer shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import MiningError
from repro.itemsets.closed import filter_closed
from repro.itemsets.coverset import Cover
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.transactions import TransactionDatabase

Itemset = frozenset[int]


def absolute_minsup(minsup: "int | float", n_transactions: int) -> int:
    """Normalise a support threshold.

    Values in ``(0, 1)`` are relative (fraction of transactions, rounded
    up); integer values >= 1 are absolute counts.
    """
    if isinstance(minsup, float) and 0 < minsup < 1:
        return max(1, math.ceil(minsup * n_transactions))
    if minsup >= 1 and float(minsup).is_integer():
        return int(minsup)
    if isinstance(minsup, float) and minsup >= 1:
        raise MiningError(
            f"minsup {minsup} is a non-integer float >= 1: absolute "
            "thresholds must be whole counts (e.g. 2, not 2.5) and "
            "relative thresholds must be fractions in (0,1)"
        )
    raise MiningError(
        f"minsup must be a fraction in (0,1) or an integer >= 1, got {minsup}"
    )


@dataclass
class MiningResult:
    """Frequent itemsets with supports and (optionally) covers."""

    supports: dict[Itemset, int]
    minsup: int
    closed_only: bool
    covers: "dict[Itemset, Cover] | None" = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.supports)


def mine(
    db: TransactionDatabase,
    minsup: "int | float",
    closed: bool = False,
    items: "list[int] | None" = None,
    max_len: "int | None" = None,
    with_covers: bool = False,
) -> MiningResult:
    """Mine frequent (optionally closed) itemsets from ``db``.

    Parameters
    ----------
    minsup:
        Relative (fraction) or absolute (count) support threshold.
    closed:
        Keep only closed itemsets.
    with_covers:
        Also return the covers of the kept itemsets.
    """
    # Fractions resolve against the *live* rows so restricted views
    # (temporal snapshots) are thresholded at their own scale.
    threshold = absolute_minsup(minsup, db.n_active)
    # Closedness of a size-k itemset depends on its (k+1)-supersets, so a
    # closed mine under a length cap must look one level deeper.
    mine_len = max_len + 1 if (closed and max_len is not None) else max_len
    covers = None
    if with_covers:
        covers = mine_eclat(db, threshold, items=items, max_len=mine_len,
                            with_covers=True)
        supports = {k: v.support() for k, v in covers.items()}
    else:
        supports = mine_eclat(db, threshold, items=items, max_len=mine_len)
    if closed:
        supports = filter_closed(supports)
    if max_len is not None:
        supports = {k: v for k, v in supports.items() if len(k) <= max_len}
    if covers is not None:
        covers = {k: v for k, v in covers.items() if k in supports}
    return MiningResult(supports, threshold, closed, covers)
