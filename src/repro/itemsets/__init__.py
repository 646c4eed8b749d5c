"""Frequent (closed) itemset mining substrate.

Reimplements, in pure Python/NumPy, the mining stack the original SCube
borrows from external libraries: a vertical Eclat miner over item
covers, closed-itemset filtering, and the packed ``uint64`` cover
bitmaps both run on.
"""

from repro.itemsets.closed import filter_closed
from repro.itemsets.coverset import Cover, CoverSet
from repro.itemsets.eclat import mine_eclat
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.itemsets.miner import MiningResult, absolute_minsup, mine
from repro.itemsets.transactions import (
    EncodeAccumulator,
    TransactionDatabase,
    encode_table,
)

__all__ = [
    "EncodeAccumulator",
    "Cover",
    "CoverSet",
    "Item",
    "ItemDictionary",
    "ItemKind",
    "MiningResult",
    "TransactionDatabase",
    "absolute_minsup",
    "encode_table",
    "filter_closed",
    "mine",
    "mine_eclat",
]
