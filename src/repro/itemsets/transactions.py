"""Transaction databases: the mining-ready encoding of ``finalTable``.

"Relational data is transformed into transaction database for itemset
mining" (paper §2): every row of ``finalTable`` becomes a transaction
whose items are the ``attribute=value`` pairs of its SA and CA columns;
multi-valued attributes contribute one item per member "for free".
The unit id is *not* an item — it rides along as a per-transaction label
so the builder can split any cover into per-unit counts.

Storage is columnar throughout: transactions live in a CSR-style pair of
arrays (``indptr`` offsets into a flat, per-row-sorted ``indices`` item
array), and the vertical layout — one cover per item — is served as
packed-bitmap :class:`~repro.itemsets.coverset.CoverSet` objects rather
than dense byte-per-transaction boolean arrays.  Encoding, per-item
supports and per-unit splitting are all vectorized; no per-row Python
loop touches the hot path.

Per-unit counting is one kernel in two steps, run on a second copy of
the item covers, re-packed with the rows grouped by unit
(:meth:`TransactionDatabase.unit_words`).  The AND step
(:func:`_and_rows`) ANDs item rows word-wise into a block of covers;
the count step (:func:`_count_units`) reads each row's per-unit counts
off a running popcount taken at the unit boundaries: integer work on
packed words, with no cover ever unpacked to one byte per row.  Two
paths share both steps.  :func:`count_unit_bits` counts itemsets, each
from its own item rows and the live row
(:meth:`TransactionDatabase.unit_counts_of`: the context populations,
the incremental engine's recomputed contexts and the closed-mode
resolver's point queries).  :func:`count_on_contexts` counts the cube
fill's cells: each context's rows, live row included, are ANDed once,
and each cell ANDs only its own SA rows on top.  Restricted views share
the item rows with their root database and pack only their own live-row
mask.

One encoder turns tables into databases: :class:`EncodeAccumulator`
folds table chunks (see :mod:`repro.etl.stream`) into the CSR store as
they arrive, taking each column's codes as they are, with an
``np.memmap`` disk spill once the accumulated index buffers exceed an
optional byte budget — the out-of-core path, which never holds per-row
Python lists or full-input item arrays.  :func:`encode_table` runs it
over one in-memory table as a single chunk.
"""

from __future__ import annotations

import shutil
import tempfile
from collections.abc import Collection, Iterable, Iterator, Sequence
from itertools import chain
from pathlib import Path

import numpy as np

from repro.errors import MiningError
from repro.etl.schema import Role, Schema
from repro.etl.table import Table
from repro.itemsets.coverset import (
    WORD_BITS,
    WORD_DTYPE,
    Cover,
    CoverSet,
    as_cover,
    popcount_each,
)
from repro.itemsets.items import Item, ItemDictionary, ItemKind
from repro.sorting import stable_order

#: Target entry count of one merge window in the chunked-encode
#: finalisation (bounds scratch at a few dozen MB regardless of input).
_ENCODE_WINDOW_ENTRIES = 1 << 22

#: Word budget of one counting chunk.  Itemsets (or cells) are counted
#: ``_COUNT_CHUNK_WORDS // n_words`` at a time (at least one), so the
#: kernel's scratch — the AND accumulator, one gathered block of item
#: rows, their popcounts and running sums, ~25 bytes a word — is
#: ~1.6 MB: far inside the fill's 32 MB batch budget, and small enough
#: to stay in a core's cache, where the kernel ran 1.7x faster than
#: with ``1 << 20``-word (~26 MB) chunks (30k rows, 4k itemsets).  Past
#: 4M rows a chunk is a single itemset, ~25 bytes per word of one row.
_COUNT_CHUNK_WORDS = 1 << 16


class TransactionDatabase:
    """An immutable transaction database with per-transaction unit labels.

    Transaction ``t`` holds the item ids ``indices[indptr[t]:indptr[t +
    1]]``, strictly increasing.  Built by :class:`EncodeAccumulator`
    (and :func:`encode_table`) and by :meth:`restrict`.

    Attributes
    ----------
    dictionary:
        The :class:`~repro.itemsets.items.ItemDictionary` describing ids.
    units:
        ``int64`` array with the unit id of each transaction, or None
        when the schema has no unit column.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        dictionary: ItemDictionary,
        units: np.ndarray | None,
    ):
        self._indptr = indptr
        self._indices = indices
        self.dictionary = dictionary
        if units is not None:
            units = np.asarray(units, dtype=np.int64)
            if len(units) != len(indptr) - 1:
                raise MiningError(
                    f"{len(units)} unit labels for {len(indptr) - 1} "
                    "transactions"
                )
            if len(units) and units.min() < 0:
                raise MiningError("unit ids must be non-negative")
        self.units = units
        self._covers: dict[int, Cover] | None = None
        self._item_supports: np.ndarray | None = None
        self._unit_order: np.ndarray | None = None
        self._unit_indptr: np.ndarray | None = None
        self._unit_words: "tuple[np.ndarray, np.ndarray] | None" = None
        self._active: Cover | None = None
        #: The unrestricted database a restricted view shares its
        #: unit-ordered item rows with (None when unrestricted).
        self._root: "TransactionDatabase | None" = None

    def restrict(self, active: "Cover | np.ndarray") -> "TransactionDatabase":
        """A view of this database with only ``active`` rows live.

        The restricted view keeps the *same row universe* (covers stay
        ``len(self)`` bits wide, unit labels and item ids are shared),
        but every item cover is intersected with ``active`` and the
        empty itemset's cover *is* ``active`` — so supports, mined
        itemsets and per-unit counts all describe the active subset
        only.  This is the temporal-snapshot primitive: encode the
        union-of-all-dates table once, then restrict it per snapshot
        date; covers of two dates remain directly comparable because
        they index the same rows (see :mod:`repro.cube.incremental`).

        Construction is cheap — one cover AND per item — and the
        unit→rows grouping is shared with the base database, as are the
        unit-ordered item rows of :meth:`unit_words` (the view packs
        only its own live-row mask).
        """
        active_cover = as_cover(active)
        if len(active_cover) != len(self):
            raise MiningError(
                f"active mask of {len(active_cover)} rows does not match "
                f"database of {len(self)}"
            )
        if self._active is not None:
            # Restricting a restricted view composes: the item covers
            # below are already intersected with the base restriction,
            # so the active set must be too.
            active_cover = self._active & active_cover
        db = TransactionDatabase(
            self._indptr, self._indices, self.dictionary, self.units
        )
        db._covers = {
            i: cover & active_cover for i, cover in self.covers().items()
        }
        if self.units is not None:
            self._unit_grouping()
        db._unit_order = self._unit_order
        db._unit_indptr = self._unit_indptr
        db._active = active_cover
        db._root = self if self._root is None else self._root
        return db

    @property
    def n_active(self) -> int:
        """Number of live transactions (all of them unless restricted)."""
        if self._active is None:
            return len(self)
        return self._active.support()

    def __len__(self) -> int:
        return len(self._indptr) - 1

    @property
    def n_items(self) -> int:
        return len(self.dictionary)

    @property
    def n_units(self) -> int:
        """Number of distinct unit labels (0 when unlabelled)."""
        if self.units is None or len(self.units) == 0:
            return 0
        return int(self.units.max()) + 1

    def item_supports(self) -> np.ndarray:
        """Support (transaction count) of every single item, vectorized."""
        if self._active is not None:
            covers = self.covers()
            return np.fromiter(
                (covers[i].support() for i in range(self.n_items)),
                dtype=np.int64, count=self.n_items,
            )
        return np.bincount(self._indices, minlength=self.n_items)

    def cached_item_supports(self) -> np.ndarray:
        """:meth:`item_supports`, computed once and cached.

        Mining entry points consult per-item supports on every call; the
        incremental engine in particular mines once per affected context
        against the *same* restricted snapshot view, so caching turns
        its per-context support scans into a single one.  The array is
        owned by the database — callers must not mutate it.
        """
        if self._item_supports is None:
            self._item_supports = self.item_supports()
        return self._item_supports

    def covers(self) -> "dict[int, Cover]":
        """Vertical layout: one :class:`Cover` per item id (cached).

        Built in one vectorized pass: the CSR item array is argsorted by
        item, handing every item its covered-row list, which is packed
        into its cover.
        """
        if self._covers is None:
            n = len(self)
            order = stable_order(self._indices, self.n_items)
            row_of = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self._indptr)
            )
            sorted_rows = row_of[order]
            sorted_items = self._indices[order]
            bounds = np.searchsorted(
                sorted_items, np.arange(self.n_items + 1)
            )
            self._covers = {
                i: CoverSet.from_indices(
                    sorted_rows[bounds[i]:bounds[i + 1]], n
                )
                for i in range(self.n_items)
            }
        return self._covers

    def full_cover(self) -> Cover:
        """The empty itemset's cover: every live transaction.

        All rows for a plain database; the active subset for a
        restricted view (see :meth:`restrict`).
        """
        if self._active is not None:
            return self._active
        return CoverSet.ones(len(self))

    def cover_of(self, itemset: Iterable[int]) -> Cover:
        """Cover of an itemset (word-wise AND of its item covers)."""
        covers = self.covers()
        result: Cover | None = None
        for i in itemset:
            if i not in covers:
                raise MiningError(f"item id {i} out of range")
            result = covers[i] if result is None else result & covers[i]
        if result is None:
            return self.full_cover()
        return result

    def _unit_grouping(self) -> tuple[np.ndarray, np.ndarray]:
        """Precomputed unit→rows grouping: permutation + group offsets."""
        if self._unit_order is None:
            self._unit_order = stable_order(self.units, self.n_units)
            sizes = np.bincount(self.units, minlength=self.n_units)
            indptr = np.zeros(self.n_units + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            self._unit_indptr = indptr
        return self._unit_order, self._unit_indptr

    def unit_words(self) -> "tuple[np.ndarray, np.ndarray]":
        """The item covers re-packed in unit order, and the unit bounds.

        Returns ``(words, bounds)``.  ``words`` is an ``(n_items + 1,
        n_words)`` ``uint64`` matrix: row ``i`` is item ``i``'s cover
        with the rows permuted into the unit order of
        :meth:`_unit_grouping`, and the last row is the live-row cover
        in the same order (the padding row of :meth:`item_index_rows`).
        Unit ``u`` owns bits ``bounds[u]:bounds[u + 1]``.  Built once:
        a restricted view copies its root's item rows and packs only its
        own live-row mask.  The cache is published with one assignment,
        so a concurrent reader never sees it half built.
        """
        if self.units is None:
            raise MiningError("transaction database has no unit labels")
        if self._unit_words is None:
            order, bounds = self._unit_grouping()
            if self._root is None:
                covers = self.covers()
                n_words = (len(self) + WORD_BITS - 1) // WORD_BITS
                words = np.empty((self.n_items + 1, n_words), WORD_DTYPE)
                for i in range(self.n_items):
                    words[i] = CoverSet.from_bools(
                        covers[i].to_bools()[order]
                    ).words
                words[-1] = CoverSet.ones(len(self)).words
            else:
                words = self._root.unit_words()[0].copy()
                words[-1] = CoverSet.from_bools(
                    self._active.to_bools()[order]
                ).words
            self._unit_words = (words, bounds)
        return self._unit_words

    def item_index_rows(
        self, itemsets: "Iterable[Collection[int]]"
    ) -> np.ndarray:
        """Itemsets as padded rows of item ids: the kernel's input.

        Row ``j`` holds the ids of ``itemsets[j]``, then the padding id
        ``n_items`` — the live-row cover's row in :meth:`unit_words` —
        up to one more than the longest itemset's length, so every row
        ANDs the live rows in.  Ids outside ``[0, n_items)`` raise
        :class:`~repro.errors.MiningError`, so no input reaches the
        padding row.
        """
        return _padded_rows(itemsets, self.n_items)

    def unit_counts_of(
        self, itemsets: "Iterable[Collection[int]]"
    ) -> np.ndarray:
        """Per-unit counts of many itemsets' covers, ``(k, n_units)`` int64.

        Row ``j`` counts, per unit, the live rows holding every item of
        ``itemsets[j]``; the empty itemset counts the live rows.  No
        cover is materialised in row order: each itemset's rows of
        :meth:`unit_words` are ANDed word-wise and
        :func:`count_unit_bits` counts the result per unit.  The
        context population vectors, the incremental engine's recomputed
        contexts and the closed-mode resolver's point queries count
        here; the fill counts its cells on their contexts with the same
        two steps (:func:`count_on_contexts`).
        """
        words, bounds = self.unit_words()
        return count_unit_bits(words, bounds, self.item_index_rows(itemsets))


def _padded_rows(
    itemsets: "Iterable[Collection[int]]", pad: int
) -> np.ndarray:
    """Itemsets as rows of item ids, padded with ``pad``.

    Row ``j`` holds the ids of ``itemsets[j]``, then ``pad`` up to one
    more than the longest itemset's length, so every row names row
    ``pad`` at least once.  Ids outside ``[0, pad)`` raise
    :class:`~repro.errors.MiningError`.
    """
    itemsets = list(itemsets)
    k = len(itemsets)
    lengths = np.fromiter(map(len, itemsets), dtype=np.int64, count=k)
    flat = np.fromiter(
        chain.from_iterable(itemsets), dtype=np.int64,
        count=int(lengths.sum()),
    )
    bad = (flat < 0) | (flat >= pad)
    if bad.any():
        raise MiningError(f"item id {flat[bad][0]} out of range")
    width = int(lengths.max()) + 1 if k else 1
    rows = np.full((k, width), pad, dtype=np.int64)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    rows[
        np.repeat(np.arange(k), lengths),
        np.arange(len(flat)) - starts,
    ] = flat
    return rows


def _and_rows(
    words: np.ndarray, index_rows: np.ndarray, acc: np.ndarray
) -> np.ndarray:
    """The AND step: AND the ``words`` rows each row of ``index_rows``
    names into the same row of ``acc``, in place; returns ``acc``."""
    block = np.empty_like(acc)
    for j in range(index_rows.shape[1]):
        np.take(words, index_rows[:, j], axis=0, out=block, mode="clip")
        acc &= block
    return acc


def _and_itemsets(
    words: np.ndarray, index_rows: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The AND step over whole itemsets: row ``j`` of ``out`` becomes the
    AND of the ``words`` rows ``index_rows[j]`` names; returns ``out``."""
    np.take(words, index_rows[:, 0], axis=0, out=out, mode="clip")
    return _and_rows(words, index_rows[:, 1:], out)


def _unit_edges(
    bounds: np.ndarray, n_words: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Each unit boundary's word, that word clamped to the last one, and
    the mask of the boundary's bits below it within its word (empty for
    a boundary at the very end of the last word)."""
    at_word = bounds // WORD_BITS
    low_bits = (
        np.uint64(1) << (bounds % WORD_BITS).astype(np.uint64)
    ) - np.uint64(1)
    return at_word, np.minimum(at_word, n_words - 1), low_bits


def _count_units(
    acc: np.ndarray, edges: "tuple[np.ndarray, np.ndarray, np.ndarray]"
) -> np.ndarray:
    """The count step: per-unit set bits of each row of an ANDed block.

    The number of set bits below bit ``b`` is the popcount of every
    whole word below word ``b // 64`` (a running sum over the words)
    plus one masked popcount of word ``b // 64``; a unit's count is the
    difference of that number at its two boundaries (``edges``, from
    :func:`_unit_edges`).  Integer throughout, so exact.
    """
    at_word, edge_word, low_bits = edges
    below = np.zeros((len(acc), acc.shape[1] + 1), dtype=np.int64)
    np.cumsum(popcount_each(acc), axis=1, dtype=np.int64, out=below[:, 1:])
    at = below[:, at_word] + popcount_each(acc[:, edge_word] & low_bits)
    return np.diff(at, axis=1)


def count_unit_bits(
    words: np.ndarray, bounds: np.ndarray, index_rows: np.ndarray
) -> np.ndarray:
    """Per-unit set-bit counts of ANDed word rows: the itemset counter.

    Row ``j`` of the ``(len(index_rows), len(bounds) - 1)`` int64 result
    counts, for each unit ``u``, the set bits at positions
    ``bounds[u]:bounds[u + 1]`` of the AND of the ``words`` rows that
    ``index_rows[j]`` names (:func:`_and_itemsets`, then
    :func:`_count_units`).  Itemsets are counted
    ``_COUNT_CHUNK_WORDS // n_words`` at a time, which bounds the
    scratch.
    """
    k, n_units = len(index_rows), len(bounds) - 1
    n_words = words.shape[1]
    out = np.zeros((k, n_units), dtype=np.int64)
    if k == 0 or n_words == 0:
        return out
    edges = _unit_edges(bounds, n_words)
    step = max(1, _COUNT_CHUNK_WORDS // n_words)
    for a in range(0, k, step):
        rows = index_rows[a:a + step]
        acc = np.empty((len(rows), n_words), dtype=words.dtype)
        out[a:a + len(rows)] = _count_units(
            _and_itemsets(words, rows, acc), edges
        )
    return out


def count_on_contexts(
    words: np.ndarray,
    bounds: np.ndarray,
    contexts: "Sequence[Collection[int]]",
    cell_rows: np.ndarray,
    sizes: "Sequence[int]",
    batch: int,
) -> "Iterator[np.ndarray]":
    """Per-unit counts of cells ANDed on their contexts: the fill's counter.

    Cells come in groups, one per context: group ``g`` has ``sizes[g]``
    cells and the context item ids ``contexts[g]``, and ``cell_rows[j]``
    names the ``words`` rows of cell ``j``'s own items, padded with the
    live row (``len(words) - 1``).  Each context's rows, the live row
    included, are ANDed once into the context's cover; a cell's cover
    is its context's cover ANDed with its own rows, counted per unit by
    the count step :func:`count_unit_bits` uses.  Cells are ANDed
    ``_COUNT_CHUNK_WORDS // n_words`` at a time, each chunk with the
    covers of the contexts it reaches, and the last of those is kept
    for the next chunk.  Yields the ``(n, n_units)`` int64 counts of
    ``batch`` cells at a time, in cell order.
    """
    n_words, n_units = words.shape[1], len(bounds) - 1
    context_rows = _padded_rows(contexts, len(words) - 1)
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    edges = _unit_edges(bounds, n_words)
    step = max(1, _COUNT_CHUNK_WORDS // max(1, n_words))
    held, held_cover = -1, None
    for a in range(0, len(cell_rows), batch):
        b = min(a + batch, len(cell_rows))
        out = np.zeros((b - a, n_units), dtype=np.int64)
        # Without rows there are no words to AND and every count is 0.
        for c in range(a, b if n_words else a, step):
            d = min(c + step, b)
            group = group_of[c:d]
            first, last = int(group[0]), int(group[-1])
            covers = np.empty((last - first + 1, n_words), dtype=words.dtype)
            fresh = first + (first == held)
            if fresh > first:
                covers[0] = held_cover
            _and_itemsets(words, context_rows[fresh:last + 1],
                          covers[fresh - first:])
            acc = np.take(covers, group - first, axis=0, mode="clip")
            out[c - a:d - a] = _count_units(
                _and_rows(words, cell_rows[c:d], acc), edges
            )
            held, held_cover = last, covers[-1]
        yield out


def encode_table(table: Table, schema: Schema) -> TransactionDatabase:
    """Encode a ``finalTable`` into a :class:`TransactionDatabase`.

    Each SA/CA column contributes items of the matching kind; the schema's
    unit column becomes the per-transaction unit label.  Rows keep their
    order, so covers index directly into the original table.  The table
    is one chunk of :class:`EncodeAccumulator`, which never spills.
    """
    accumulator = EncodeAccumulator(schema)
    accumulator.add_chunk(table)
    return accumulator.finalize()


class _SpillBuffer:
    """Append-only ``int64`` sequence with an optional disk spill.

    Arrays are appended in RAM; :meth:`spill` moves everything pending
    to a scratch file (raw little-endian int64, appended), and
    :meth:`finalize` hands back the whole logical sequence — either a
    single in-memory array or a read-only ``np.memmap`` over the
    scratch file.  The accumulator owns the scratch directory lifetime.
    """

    def __init__(self, name: str):
        self._name = name
        self._path: "Path | None" = None
        self._file = None
        self._parts: "list[np.ndarray]" = []
        self.pending_bytes = 0
        self._spilled_len = 0

    @property
    def spilled(self) -> bool:
        return self._file is not None

    def append(self, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        if len(arr) == 0:
            return
        self._parts.append(arr)
        self.pending_bytes += arr.nbytes

    def spill(self, directory: Path) -> None:
        if not self._parts:
            return
        if self._file is None:
            self._path = directory / self._name
            self._file = self._path.open("wb")
        for arr in self._parts:
            arr.tofile(self._file)
            self._spilled_len += len(arr)
        self._file.flush()
        self._parts = []
        self.pending_bytes = 0

    def finalize(self) -> np.ndarray:
        """The whole appended sequence, memmapped when spilled."""
        if self._file is not None:
            self.spill(self._path.parent)
            self._file.close()
            self._file = None
            if self._spilled_len == 0:
                return np.zeros(0, dtype=np.int64)
            return np.memmap(
                self._path, dtype=np.int64, mode="r",
                shape=(self._spilled_len,),
            )
        if not self._parts:
            return np.zeros(0, dtype=np.int64)
        if len(self._parts) == 1:
            return self._parts[0]
        return np.concatenate(self._parts)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class _SpecState:
    """Per-attribute accumulation state: category universe + buffers."""

    __slots__ = ("spec", "kind", "multi", "index", "categories", "codes",
                 "rows")

    def __init__(self, spec, kind: ItemKind, multi: bool):
        self.spec = spec
        self.kind = kind
        self.multi = multi
        self.index: "dict[object, int]" = {}
        self.categories: "list[object]" = []
        self.codes = _SpillBuffer(f"{spec.name}.codes.i64")
        self.rows = _SpillBuffer(f"{spec.name}.rows.i64") if multi else None

    def translate(self, chunk_categories: "Sequence[object]") -> np.ndarray:
        """Chunk-local category codes -> global per-column codes.

        Global codes are assigned in first-seen order across the whole
        stream, which — because chunks arrive in row order — is exactly
        the order the column's ``from_values`` assigns them on the
        concatenated table.  That is what makes a chunked encode
        bit-identical to encoding the concatenated table as one chunk.
        """
        mapping = np.empty(len(chunk_categories), dtype=np.int64)
        for local, value in enumerate(chunk_categories):
            code = self.index.get(value)
            if code is None:
                code = len(self.categories)
                self.index[value] = code
                self.categories.append(value)
            mapping[local] = code
        return mapping


class EncodeAccumulator:
    """Append-only encoder: fold table chunks into one CSR database.

    The package's one encoder: chunks stream through :meth:`add_chunk`
    (each validated against the schema; single-valued columns give their
    code arrays, multi-valued columns their CSR offsets and codes), the
    per-column category universes accumulate in first-seen order, and
    the per-item index buffers either stay in RAM or — once they exceed
    ``spill_bytes`` — spill to ``np.memmap`` scratch files.
    :meth:`finalize` merges the buffers into the CSR arrays in bounded
    row windows (one small key sort per window, never a full-input
    sort) and returns a :class:`TransactionDatabase` **bit-identical**
    to encoding the concatenated table as one chunk.

    Notes
    -----
    * Every category a chunk's column carries becomes an item, a
      category that no row uses included: its item has support 0.
    * ``spill_bytes`` budgets the item-index buffers only; the unit
      labels (8 bytes/row) and the final CSR arrays are in-memory.
    * Scratch files live in a private temporary directory, created on
      the first spill and removed when :meth:`finalize` returns or
      :meth:`close` is called; an accumulator that never spills never
      touches the disk.
    """

    def __init__(self, schema: Schema, spill_bytes: "int | None" = None):
        if spill_bytes is not None and spill_bytes < 0:
            raise MiningError("spill_bytes must be non-negative")
        self.schema = schema
        self._spill_bytes = spill_bytes
        self._scratch: "Path | None" = None
        self._states: "list[_SpecState]" = []
        for spec in schema.specs:
            if spec.role is Role.SEGREGATION:
                kind = ItemKind.SA
            elif spec.role is Role.CONTEXT:
                kind = ItemKind.CA
            else:
                continue
            self._states.append(_SpecState(spec, kind, spec.multi_valued))
        unit_names = [s.name for s in schema.specs if s.role is Role.UNIT]
        self._unit_name = unit_names[0] if unit_names else None
        self._units_parts: "list[np.ndarray]" = []
        self._n_rows = 0
        self._finalized = False

    @property
    def n_rows(self) -> int:
        """Rows accumulated so far."""
        return self._n_rows

    @property
    def spilled(self) -> bool:
        """True once any index buffer has spilled to disk."""
        return any(
            state.codes.spilled or (state.rows is not None
                                    and state.rows.spilled)
            for state in self._states
        )

    def add_chunk(self, table: Table) -> None:
        """Fold one table chunk into the accumulated encoding."""
        if self._finalized:
            raise MiningError("accumulator already finalized")
        self.schema.validate(table)
        n = len(table)
        start = self._n_rows
        for state in self._states:
            col = table.column(state.spec.name)
            mapping = state.translate(col.categories)
            if state.multi:
                state.rows.append(np.repeat(
                    np.arange(start, start + n, dtype=np.int64),
                    np.diff(col.indptr),
                ))
            state.codes.append(mapping[col.codes])
        if self._unit_name is not None:
            self._units_parts.append(
                np.asarray(table.ints(self._unit_name).data, dtype=np.int64)
            )
        self._n_rows += n
        if self._spill_bytes is not None:
            pending = sum(
                state.codes.pending_bytes
                + (state.rows.pending_bytes if state.rows is not None else 0)
                for state in self._states
            )
            if pending > self._spill_bytes:
                if self._scratch is None:
                    self._scratch = Path(
                        tempfile.mkdtemp(prefix="repro-encode-")
                    )
                for state in self._states:
                    state.codes.spill(self._scratch)
                    if state.rows is not None:
                        state.rows.spill(self._scratch)

    def finalize(self) -> TransactionDatabase:
        """Merge the accumulated buffers into one database.

        The item dictionary is built per schema spec, categories in
        first-seen order, so every spec's items occupy one contiguous id
        range starting at a per-spec base.  Final item ids are therefore
        ``base + column code``, and the CSR ``indices`` array is filled
        window by window: each row window gathers its per-spec segments
        (categorical buffers index directly, multi-valued buffers via
        ``searchsorted`` on their row arrays, both memmap-friendly) and
        sorts them with one bounded sort of the combined key
        ``(row - window start) * n_items + item``.
        """
        if self._finalized:
            raise MiningError("accumulator already finalized")
        self._finalized = True
        try:
            dictionary = ItemDictionary()
            bases: "list[int]" = []
            for state in self._states:
                bases.append(len(dictionary))
                for value in state.categories:
                    dictionary.add(Item(state.spec.name, value), state.kind)

            n = self._n_rows
            cat = [(s, b) for s, b in zip(self._states, bases) if not s.multi]
            mv = [(s, b) for s, b in zip(self._states, bases) if s.multi]
            cat_arrays = [(s.codes.finalize(), b) for s, b in cat]
            mv_arrays = [
                (s.rows.finalize(), s.codes.finalize(), b) for s, b in mv
            ]

            counts = np.full(n, len(cat), dtype=np.int64)
            for rows_arr, _, _ in mv_arrays:
                if len(rows_arr):
                    counts += np.bincount(rows_arr, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            total = int(indptr[-1])
            indices = np.empty(total, dtype=np.int64)

            n_keys = max(1, len(dictionary))
            per_row = max(1, total // n) if n else 1
            window = max(1, _ENCODE_WINDOW_ENTRIES // per_row)
            for a in range(0, n, window):
                b = min(n, a + window)
                ids_parts: "list[np.ndarray]" = []
                rows_parts: "list[np.ndarray]" = []
                for codes_arr, base in cat_arrays:
                    ids_parts.append(
                        np.asarray(codes_arr[a:b], dtype=np.int64) + base
                    )
                    rows_parts.append(np.arange(a, b, dtype=np.int64))
                for rows_arr, codes_arr, base in mv_arrays:
                    lo, hi = np.searchsorted(rows_arr, [a, b])
                    ids_parts.append(
                        np.asarray(codes_arr[lo:hi], dtype=np.int64) + base
                    )
                    rows_parts.append(
                        np.asarray(rows_arr[lo:hi], dtype=np.int64)
                    )
                if not ids_parts:
                    continue
                # (row, item) pairs are unique, so sorting one combined
                # key orders them as a lexsort by (row, item) would.
                keys = np.concatenate(rows_parts) - a
                keys *= n_keys
                keys += np.concatenate(ids_parts)
                keys.sort()
                indices[indptr[a]:indptr[b]] = keys % n_keys

            units: "np.ndarray | None" = None
            if self._unit_name is not None:
                units = (
                    np.concatenate(self._units_parts) if self._units_parts
                    else np.zeros(0, dtype=np.int64)
                )
            return TransactionDatabase(indptr, indices, dictionary, units)
        finally:
            self.close()

    def close(self) -> None:
        """Release scratch files (idempotent; finalize calls it)."""
        for state in self._states:
            state.codes.close()
            if state.rows is not None:
                state.rows.close()
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass
