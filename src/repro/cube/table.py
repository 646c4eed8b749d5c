"""CellTable: the struct-of-arrays store backing the segregation cube.

Instead of one :class:`~repro.cube.cell.CellStats` object per cell, the
cube keeps parallel columns over all cells at once:

* ``sa_masks`` / ``ca_masks`` — the (SA itemset, CA itemset) cell keys
  *encoded* as packed ``uint64`` bitmasks over item ids, so slicing and
  roll-up/drill-down become word-wise subset tests over whole columns;
* ``population`` / ``minority`` / ``n_units`` — int64 count columns;
* one float64 column per segregation index.

The arrays live behind a thin storage record (:class:`TableArrays`), so
the same table — and the same query primitives (:meth:`superset_mask`,
:meth:`top_rows`, :meth:`stats`) — runs over arrays it owns (a freshly
built cube) or over read-only memory-mapped arrays reopened from a
:mod:`repro.store` snapshot.  Both derive the rest from the masks on
first use: the row index (``{packed SA+CA words as little-endian bytes:
row}``, built once), the itemset sizes (a popcount), the canonical
order (:meth:`CellTable.canonical_order`, the rows sorted by their
packed keys, which the store digests and searches in), the store's
content digest (:meth:`CellTable.content_digest`), and each row's key
(:func:`decode_key`, kept in a per-row slot; a built table's slots
hold the keys it was given).  :meth:`CellTable.warm` builds the index
and the sizes; after it the only writes are key slots, each only ever
written with its row's one key, and the order and the digest, each
written once under the table's lock, so concurrent readers are safe.

Query primitives are array operations — boolean masks and
``argpartition`` top-k — and :class:`CellStats` survives as a lazily
materialised per-cell view (:meth:`stats`), so the object-per-cell API
keeps working unchanged.
"""

from __future__ import annotations

import operator
import threading
import weakref
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.cube.cell import CellStats
from repro.cube.coordinates import CellKey
from repro.itemsets.coverset import WORD_DTYPE, popcount_rows

_WORD_BITS = 64


def _n_words(n_items: int) -> int:
    return max(1, (n_items + _WORD_BITS - 1) // _WORD_BITS)


def pack_items(items: Iterable[int], n_words: int) -> np.ndarray:
    """Encode an itemset as a packed ``uint64`` bitmask over item ids."""
    mask = np.zeros(n_words, dtype=np.uint64)
    for item in items:
        mask[item >> 6] |= np.uint64(1) << np.uint64(item & 63)
    return mask


def _items_of(words: "list[int]") -> "frozenset[int]":
    items = []
    for base, word in enumerate(words):
        base *= _WORD_BITS
        while word:
            low = word & -word
            items.append(base + low.bit_length() - 1)
            word ^= low
    return frozenset(items)


def decode_key(sa_words: "list[int]", ca_words: "list[int]") -> CellKey:
    """Decode one row's packed SA and CA words back into its cell key.

    The inverse of :meth:`CellTable._pack_parts` for one row, and the
    table's only key decoder.  Words come as Python ints (a mask row's
    ``tolist()``), so bits are read by value, never by reinterpreting
    bytes: the decode is endian-safe.
    """
    return _items_of(sa_words), _items_of(ca_words)


def packed_rows(*masks: np.ndarray) -> np.ndarray:
    """One opaque ``np.void`` scalar per row: the words of each mask
    matrix in turn as little-endian bytes.

    Over ``(sa_masks, ca_masks)`` it is the one packed form of a row's
    key: ``tolist()`` gives the row index's ``bytes`` keys, and since
    void scalars compare as their raw bytes, numpy sorts and searches
    them (the store's digest order and delta matching) in exactly the
    order Python gives those ``bytes``.  Over ``ca_masks`` alone it
    packs each row's context.
    """
    words = np.concatenate(
        [np.asarray(mask, dtype=WORD_DTYPE) for mask in masks], axis=1,
    )
    row = np.dtype((np.void, words.itemsize * words.shape[1]))
    return words.view(row).reshape(len(words))


@dataclass(frozen=True)
class TableArrays:
    """The raw column arrays of one :class:`CellTable`.

    A plain record with no behaviour: the table's query primitives only
    read these attributes, so the arrays can equally be freshly
    allocated (builder path) or read-only ``np.memmap`` views over a
    snapshot directory (store path).
    """

    population: np.ndarray
    minority: np.ndarray
    n_units: np.ndarray
    sa_masks: np.ndarray
    ca_masks: np.ndarray
    columns: "dict[str, np.ndarray]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.population)
        for label, arr in (
            ("minority", self.minority),
            ("n_units", self.n_units),
            ("sa_masks", self.sa_masks),
            ("ca_masks", self.ca_masks),
            *self.columns.items(),
        ):
            if len(arr) != n:
                raise ValueError(
                    f"column {label!r} has {len(arr)} rows for {n} cells"
                )


class CellTable:
    """Columnar storage of cube cells (one array element per cell)."""

    def __init__(
        self,
        keys: Sequence[CellKey],
        population: "Sequence[int] | np.ndarray",
        minority: "Sequence[int] | np.ndarray",
        n_units: "Sequence[int] | np.ndarray",
        columns: "dict[str, np.ndarray]",
        n_items: int,
    ):
        keys = list(keys)
        n = len(keys)
        for label, col in columns.items():
            if len(col) != n:
                raise ValueError(
                    f"column {label!r} has {len(col)} rows for {n} cells"
                )
        # Size the key bitmasks to the largest id actually present:
        # hand-built cubes may carry keys beyond the dictionary, which
        # the old dict-backed store accepted.
        max_item = max(
            (item for key in keys for part in key for item in part),
            default=-1,
        )
        n_words = _n_words(max(n_items, max_item + 1))
        arrays = TableArrays(
            population=np.asarray(population, dtype=np.int64),
            minority=np.asarray(minority, dtype=np.int64),
            n_units=np.asarray(n_units, dtype=np.int64),
            sa_masks=self._pack_parts([k[0] for k in keys], n_words),
            ca_masks=self._pack_parts([k[1] for k in keys], n_words),
            columns={
                name: np.asarray(col, dtype=np.float64)
                for name, col in columns.items()
            },
        )
        self._attach(arrays, keys=keys)

    @classmethod
    def from_arrays(cls, arrays: TableArrays) -> "CellTable":
        """Wrap already-built (possibly memory-mapped) column arrays.

        The snapshot-open path: no packing and no decoding happens;
        each row's key is decoded from the stored bitmasks the first
        time a query needs it (:meth:`key_at`).
        """
        self = cls.__new__(cls)
        self._attach(arrays, keys=None)
        return self

    @classmethod
    def from_ordered_arrays(
        cls,
        arrays: TableArrays,
        order: np.ndarray,
        parent: "CellTable",
        superseded: np.ndarray,
    ) -> "CellTable":
        """:meth:`from_arrays` for a table composed onto ``parent``: the
        parent's rows except ``superseded`` (ascending), then its own.

        A composed delta merges its parent's order with its own rows'
        instead of sorting the whole table.  Nothing checks ``order``:
        it must be what :meth:`canonical_order` would compute.  The
        table remembers which parent rows it superseded, not the parent
        (:meth:`changes_since`).
        """
        self = cls.from_arrays(arrays)
        order.flags.writeable = False
        self._order = order
        self._composed = (weakref.ref(parent), superseded)
        return self

    def changes_since(
        self, parent: "CellTable"
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """``(own rows, superseded parent rows)`` when this table was
        composed onto ``parent`` (:meth:`from_ordered_arrays`), else
        None."""
        composed = self._composed
        if composed is None or composed[0]() is not parent:
            return None
        superseded = composed[1]
        return np.arange(len(parent) - len(superseded), len(self)), superseded

    def _attach(
        self, arrays: TableArrays, keys: "list[CellKey] | None"
    ) -> None:
        """Bind the storage record; derived state stays lazy."""
        self._arrays = arrays
        self._width = arrays.sa_masks.shape[1] * _WORD_BITS
        # One slot per row: the given keys, else filled on first use.
        self._keys: "list[CellKey | None]" = (
            keys if keys is not None else [None] * len(arrays.population)
        )
        self._all_keys = keys is not None
        self._index: "dict[bytes, int] | None" = None
        self._sizes: "tuple[np.ndarray, np.ndarray] | None" = None
        self._order: "np.ndarray | None" = None
        self._digest: "str | None" = None
        self._composed: "tuple[weakref.ref, np.ndarray] | None" = None
        self._lock = threading.Lock()

    @staticmethod
    def _pack_parts(
        parts: "list[frozenset[int]]", n_words: int
    ) -> np.ndarray:
        """Pack every itemset into one row of a ``uint64`` mask matrix."""
        n = len(parts)
        masks = np.zeros((n, n_words), dtype=np.uint64)
        lengths = np.fromiter(
            (len(p) for p in parts), dtype=np.int64, count=n
        )
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        items = np.fromiter(
            chain.from_iterable(parts), dtype=np.int64,
            count=int(lengths.sum()),
        )
        np.bitwise_or.at(
            masks,
            (rows, items >> 6),
            np.uint64(1) << (items & 63).astype(np.uint64),
        )
        return masks

    @classmethod
    def from_cells(
        cls,
        cells: "dict[CellKey, CellStats]",
        index_names: "list[str]",
        n_items: int,
    ) -> "CellTable":
        """Convert a per-object cell dict (e.g. the naive builder's)."""
        keys = list(cells.keys())
        stats = [cells[k] for k in keys]
        # Hand-built cells may carry index entries beyond the declared
        # names; keep them as extra columns so point lookups still see
        # them (declared names first, extras in sorted order).
        extra = sorted(
            {name for s in stats for name in s.indexes}
            - set(index_names)
        )
        return cls(
            keys,
            [s.population for s in stats],
            [s.minority for s in stats],
            [s.n_units for s in stats],
            {
                name: np.array(
                    [s.indexes.get(name, float("nan")) for s in stats],
                    dtype=np.float64,
                )
                for name in list(index_names) + extra
            },
            n_items,
        )

    # ------------------------------------------------------------------
    # Storage access
    # ------------------------------------------------------------------

    @property
    def arrays(self) -> TableArrays:
        """The underlying storage record (owned or mmapped)."""
        return self._arrays

    @property
    def population(self) -> np.ndarray:
        return self._arrays.population

    @property
    def minority(self) -> np.ndarray:
        return self._arrays.minority

    @property
    def n_units(self) -> np.ndarray:
        return self._arrays.n_units

    @property
    def sa_masks(self) -> np.ndarray:
        return self._arrays.sa_masks

    @property
    def ca_masks(self) -> np.ndarray:
        return self._arrays.ca_masks

    @property
    def columns(self) -> "dict[str, np.ndarray]":
        return self._arrays.columns

    @property
    def keys(self) -> "list[CellKey]":
        """Cell keys by row: every empty slot filled by :func:`decode_key`."""
        if not self._all_keys:
            slots = self._keys
            rows = zip(self._arrays.sa_masks.tolist(),
                       self._arrays.ca_masks.tolist())
            for row, (sa_words, ca_words) in enumerate(rows):
                if slots[row] is None:
                    slots[row] = decode_key(sa_words, ca_words)
            # Only now: a reader that sees the flag returns every slot.
            self._all_keys = True
        return self._keys

    def key_at(self, row: int) -> CellKey:
        """One row's cell key, decoded from its masks on first use.

        Racing threads decode the same row to equal keys, so whichever
        write lands last stores the same key.
        """
        key = self._keys[row]
        if key is None:
            key = decode_key(
                self._arrays.sa_masks[row].tolist(),
                self._arrays.ca_masks[row].tolist(),
            )
            self._keys[row] = key
        return key

    @property
    def sa_sizes(self) -> np.ndarray:
        """Per-cell SA itemset size."""
        return self._ensure_sizes()[0]

    @property
    def ca_sizes(self) -> np.ndarray:
        """Per-cell CA itemset size."""
        return self._ensure_sizes()[1]

    def _ensure_sizes(self) -> "tuple[np.ndarray, np.ndarray]":
        if self._sizes is None:
            with self._lock:
                if self._sizes is None:
                    self._sizes = (
                        popcount_rows(self._arrays.sa_masks),
                        popcount_rows(self._arrays.ca_masks),
                    )
        return self._sizes

    def _row_index(self) -> "dict[bytes, int]":
        """``{packed SA+CA words: row}``; a repeated key maps to its last row."""
        if self._index is None:
            with self._lock:
                if self._index is None:
                    packed = packed_rows(
                        self._arrays.sa_masks, self._arrays.ca_masks
                    ).tolist()
                    self._index = dict(zip(packed, range(len(packed))))
        return self._index

    def canonical_order(self) -> np.ndarray:
        """The rows sorted by their packed keys, equal keys in row order.

        The stable argsort of ``packed_rows(sa_masks, ca_masks)``,
        computed on first use and kept (read-only).  It is the order
        the store's content digest hashes rows in, and the sorted view
        its row searches bisect, so a table is sorted at most once.
        """
        if self._order is None:
            with self._lock:
                if self._order is None:
                    order = np.argsort(
                        packed_rows(self._arrays.sa_masks,
                                    self._arrays.ca_masks),
                        kind="stable",
                    )
                    order.flags.writeable = False
                    self._order = order
        return self._order

    def content_digest(
        self, hash_rows: "Callable[[CellTable, np.ndarray], str]"
    ) -> str:
        """``hash_rows(self, canonical_order())``, computed once and kept.

        The store's content digest (:func:`repro.store.snapshot.table_digest`
        passes its row hasher), so a table published and then named as
        the next publish's parent is hashed once.  Computing it clears
        the writeable flag of every array of the table, so no write
        through them can make the kept digest stale.
        """
        if self._digest is None:
            order = self.canonical_order()
            with self._lock:
                if self._digest is None:
                    arrays = self._arrays
                    for array in (
                        arrays.population, arrays.minority, arrays.n_units,
                        arrays.sa_masks, arrays.ca_masks,
                        *arrays.columns.values(),
                    ):
                        array.flags.writeable = False
                    self._digest = hash_rows(self, order)
        return self._digest

    def _pack_key(self, key: CellKey) -> "bytes | None":
        """A key as its row's index bytes; None when no row can hold it
        (a negative id, or one past the mask width)."""
        width = self._width
        bits = 0
        for shift, part in enumerate(key):
            for item in part:
                if not 0 <= item < width:
                    return None
                bits |= 1 << (operator.index(item) + shift * width)
        return bits.to_bytes(2 * width // 8, "little")

    def warm(self) -> "CellTable":
        """Build the row index and the size vectors, and nothing else.

        Called by the serving layer before the table is shared across
        threads: afterwards the only writes are :meth:`key_at`'s slots.
        """
        self._row_index()
        self._ensure_sizes()
        return self

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._arrays.population)

    def __contains__(self, key: CellKey) -> bool:
        return self.row_of(key) is not None

    def row_of(self, key: CellKey) -> "int | None":
        """Row index of a cell key, or None when not materialised."""
        packed = self._pack_key(key)
        return None if packed is None else self._row_index().get(packed)

    def stats(self, row: int) -> CellStats:
        """Materialise one row as a :class:`CellStats` view."""
        return CellStats(
            key=self.key_at(row),
            population=int(self.population[row]),
            minority=int(self.minority[row]),
            n_units=int(self.n_units[row]),
            indexes={
                name: float(col[row]) for name, col in self.columns.items()
            },
        )

    def value_at(self, row: int, index_name: str) -> float:
        """One index value without materialising the row."""
        col = self.columns.get(index_name)
        return float(col[row]) if col is not None else float("nan")

    # ------------------------------------------------------------------
    # Columnar masks
    # ------------------------------------------------------------------

    @property
    def depths(self) -> np.ndarray:
        """Per-cell coordinate count (``|A| + |B|``)."""
        return self.sa_sizes + self.ca_sizes

    def context_only_mask(self) -> np.ndarray:
        """True for cells with an all-``⋆`` SA part."""
        return self.sa_sizes == 0

    def defined_mask(self, index_name: str) -> np.ndarray:
        """True where the index value is a proper number."""
        col = self.columns.get(index_name)
        if col is None:
            return np.zeros(len(self), dtype=bool)
        return ~np.isnan(col)

    def superset_mask(self, sa_items: Iterable[int],
                      ca_items: Iterable[int]) -> np.ndarray:
        """True for cells whose coordinates include the given itemsets.

        Word-wise containment: row ``r`` passes when
        ``sa_masks[r] & want_sa == want_sa`` (and likewise for CA) —
        the array form of ``want_sa <= key[0] and want_ca <= key[1]``.
        Item ids beyond the mask capacity (e.g. keys borrowed from
        another cube's dictionary) cannot be contained in any cell, so
        they yield an all-False mask, like the frozenset subset test.
        """
        sa_items = list(sa_items)
        ca_items = list(ca_items)
        n_words = self.sa_masks.shape[1]
        capacity = n_words * _WORD_BITS
        if any(
            item < 0 or item >= capacity
            for item in chain(sa_items, ca_items)
        ):
            return np.zeros(len(self), dtype=bool)
        want_sa = pack_items(sa_items, n_words)
        want_ca = pack_items(ca_items, n_words)
        return (
            ((self.sa_masks & want_sa) == want_sa).all(axis=1)
            & ((self.ca_masks & want_ca) == want_ca).all(axis=1)
        )

    def top_rows(
        self,
        index_name: str,
        k: int,
        mask: np.ndarray,
        tie_break,
    ) -> "list[int]":
        """Top-``k`` rows of ``mask`` by one index column, highest
        first.

        ``argpartition`` narrows the candidates to the boundary value
        before any per-cell work; only rows tied around the cut-off are
        ranked with the (Python-level) ``tie_break`` description key, so
        the expensive decode runs on O(k) cells, not O(n).
        """
        col = self.columns.get(index_name)
        if col is None or k <= 0:
            return []
        rows = np.flatnonzero(mask)
        if len(rows) == 0:
            return []
        # NaN (undefined) cells cannot rank; drop them here so the
        # partition boundary is always a real value even when the
        # caller's mask did not pre-filter them.
        defined = ~np.isnan(col[rows])
        rows = rows[defined]
        if len(rows) == 0:
            return []
        order_vals = -col[rows]
        if len(rows) > k:
            kth = np.partition(order_vals, k - 1)[k - 1]
            keep = order_vals <= kth
            rows, order_vals = rows[keep], order_vals[keep]
        ranked = sorted(
            zip(order_vals.tolist(), rows.tolist()),
            key=lambda pair: (pair[0], tie_break(pair[1])),
        )
        return [row for _, row in ranked[:k]]
