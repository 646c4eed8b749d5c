"""CellTable: the struct-of-arrays store backing the segregation cube.

Instead of one :class:`~repro.cube.cell.CellStats` object per cell, the
cube keeps parallel columns over all cells at once:

* ``keys`` — the (SA itemset, CA itemset) cell keys, one per row, with a
  hash index for O(1) point lookup;
* ``sa_masks`` / ``ca_masks`` — the same keys *encoded* as packed
  ``uint64`` bitmasks over item ids, so slicing and roll-up/drill-down
  become word-wise subset tests over whole columns;
* ``population`` / ``minority`` / ``n_units`` — int64 count columns;
* one float64 column per segregation index.

The arrays live behind a thin storage record (:class:`TableArrays`), so
the same table — and the same query primitives (:meth:`superset_mask`,
:meth:`top_rows`, :meth:`stats`) — runs over arrays it owns (a freshly
built cube) or over read-only memory-mapped arrays reopened from a
:mod:`repro.store` snapshot.  In the snapshot case the keys and the
hash index are *derived* state: keys are decoded lazily from the packed
bitmasks, and the index is built on first point lookup (both under a
lock, so concurrent readers are safe).

Query primitives are array operations — boolean masks and
``argpartition`` top-k — and :class:`CellStats` survives as a lazily
materialised per-cell view (:meth:`stats`), so the object-per-cell API
keeps working unchanged.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.cube.cell import CellStats
from repro.cube.coordinates import CellKey

_WORD_BITS = 64


def _n_words(n_items: int) -> int:
    return max(1, (n_items + _WORD_BITS - 1) // _WORD_BITS)


def pack_items(items: Iterable[int], n_words: int) -> np.ndarray:
    """Encode an itemset as a packed ``uint64`` bitmask over item ids."""
    mask = np.zeros(n_words, dtype=np.uint64)
    for item in items:
        mask[item >> 6] |= np.uint64(1) << np.uint64(item & 63)
    return mask


def unpack_masks(masks: np.ndarray) -> "list[frozenset[int]]":
    """Decode each row of a packed mask matrix back into an itemset.

    The inverse of :meth:`CellTable._pack_parts`, used when a table is
    reopened from stored arrays and its keys must be reconstructed.
    Endian-safe: bits are extracted by shifting, never by reinterpreting
    the word bytes.
    """
    n, n_words = masks.shape
    out: "list[list[int]]" = [[] for _ in range(n)]
    shifts = np.arange(_WORD_BITS, dtype=np.uint64)
    one = np.uint64(1)
    for word in range(n_words):
        column = np.asarray(masks[:, word])
        if not column.any():
            continue
        bits = (column[:, None] >> shifts) & one
        rows, offsets = np.nonzero(bits)
        base = word * _WORD_BITS
        for row, offset in zip(rows.tolist(), offsets.tolist()):
            out[row].append(base + offset)
    return [frozenset(items) for items in out]


def _mask_sizes(masks: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed mask matrix (itemset sizes)."""
    n = len(masks)
    if n == 0 or masks.size == 0:
        return np.zeros(n, dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    shifts = np.arange(_WORD_BITS, dtype=np.uint64)
    one = np.uint64(1)
    for word in range(masks.shape[1]):
        column = np.asarray(masks[:, word])
        bits = (column[:, None] >> shifts) & one
        sizes += bits.sum(axis=1).astype(np.int64)
    return sizes


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
    def from_arrays(
        cls, arrays: TableArrays, keys: "Sequence[CellKey] | None" = None
    ) -> "CellTable":
        """Wrap already-built (possibly memory-mapped) column arrays.

        The snapshot-open path: no packing happens; when ``keys`` is
        omitted they are decoded lazily from the stored bitmasks the
        first time key-level access is needed.
        """
        self = cls.__new__(cls)
        self._attach(arrays, keys=list(keys) if keys is not None else None)
        return self

    def _attach(
        self, arrays: TableArrays, keys: "list[CellKey] | None"
    ) -> None:
        """Bind the storage record; derived state stays lazy."""
        self._arrays = arrays
        self._keys = keys
        self._index: "dict[CellKey, int] | None" = None
        # Sizes stay lazy on both paths: _ensure_sizes derives them from
        # the keys when decoded, from the mask popcounts otherwise.
        self._sizes: "tuple[np.ndarray, np.ndarray] | None" = None
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
        """Cell keys by row (decoded from the bitmasks when reopened)."""
        if self._keys is None:
            with self._lock:
                if self._keys is None:
                    sa = unpack_masks(self._arrays.sa_masks)
                    ca = unpack_masks(self._arrays.ca_masks)
                    self._keys = list(zip(sa, ca))
        return self._keys

    @property
    def decoded_keys(self) -> "list[CellKey] | None":
        """The row keys when already decoded (or given), else None.

        Never decodes: a table composed from this one reuses these key
        objects for the rows it keeps, and otherwise stays lazy.
        """
        return self._keys

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
                    keys = self._keys
                    if keys is not None:
                        # Keys already decoded: sizes are plain lengths,
                        # no second bit-expansion over the masks.
                        n = len(keys)
                        self._sizes = (
                            np.fromiter((len(k[0]) for k in keys),
                                        dtype=np.int64, count=n),
                            np.fromiter((len(k[1]) for k in keys),
                                        dtype=np.int64, count=n),
                        )
                    else:
                        self._sizes = (
                            _mask_sizes(self._arrays.sa_masks),
                            _mask_sizes(self._arrays.ca_masks),
                        )
        return self._sizes

    def _ensure_index(self) -> "dict[CellKey, int]":
        if self._index is None:
            keys = self.keys
            with self._lock:
                if self._index is None:
                    self._index = {key: i for i, key in enumerate(keys)}
        return self._index

    def warm(self) -> "CellTable":
        """Force-build all lazy derived state (keys, sizes, hash index).

        Called by the serving layer before the table is shared across
        threads: afterwards every query path is read-only.
        """
        self._ensure_index()
        self._ensure_sizes()
        return self

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._arrays.population)

    def __contains__(self, key: CellKey) -> bool:
        return key in self._ensure_index()

    def row_of(self, key: CellKey) -> "int | None":
        """Row index of a cell key, or None when not materialised."""
        return self._ensure_index().get(key)

    def stats(self, row: int) -> CellStats:
        """Materialise one row as a :class:`CellStats` view."""
        return CellStats(
            key=self.keys[row],
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
        descending: bool,
        tie_break,
    ) -> "list[int]":
        """Top-``k`` rows of ``mask`` by one index column.

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
        order_vals = col[rows] if not descending else -col[rows]
        if len(rows) > k:
            kth = np.partition(order_vals, k - 1)[k - 1]
            keep = order_vals <= kth
            rows, order_vals = rows[keep], order_vals[keep]
        ranked = sorted(
            zip(order_vals.tolist(), rows.tolist()),
            key=lambda pair: (pair[0], tie_break(pair[1])),
        )
        return [row for _, row in ranked[:k]]
