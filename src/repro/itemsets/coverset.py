"""Cover sets: the one transaction-mask representation of the system.

A *cover* is the set of transactions containing an itemset.  Every layer
of the pipeline manipulates covers — the Eclat DFS intersects them, the
closed-itemset filter compares their cardinalities, the cube builder
splits them into per-unit counts — so their representation is the single
most performance-critical data-structure choice in the system.

:class:`CoverSet` is that representation: one bit per transaction packed
into little-endian ``uint64`` words.  Intersection is a vectorized
word-wise AND over ``n/64`` words and support is a vectorized popcount,
i.e. 8x less memory traffic and word-level (not byte-level) logic
compared to a dense ``bool`` array.  ``Cover`` names the same class, so
type hints read as "a cover" wherever the packing is incidental.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

import numpy as np

from repro.errors import MiningError

WORD_BITS = 64

# Explicit little-endian words: ``np.packbits(..., bitorder="little")``
# emits bytes in little-endian bit order, so the word view must match on
# big-endian hosts too.
WORD_DTYPE = np.dtype("<u8")

# Bits-set-per-byte lookup table, the popcount fallback for NumPy < 2.0
# (NumPy 2.x has a native vectorized ``np.bitwise_count``).
_POPCOUNT_LUT = np.array(
    [bin(byte).count("1") for byte in range(256)], dtype=np.uint8
)


def popcount_each(words: np.ndarray) -> np.ndarray:
    """Set bits of every ``uint64`` word: a ``uint8`` array, same shape."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    per_byte = _POPCOUNT_LUT[np.ascontiguousarray(words).view(np.uint8)]
    return per_byte.reshape(words.shape + (8,)).sum(axis=-1, dtype=np.uint8)


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across an array of ``uint64`` words."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT_LUT[words.view(np.uint8)].sum())


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D ``uint64`` word matrix (``int64`` vector)."""
    return popcount_each(words).sum(axis=1, dtype=np.int64)


class CoverSet:
    """Packed-bitmap cover: one bit per transaction in ``uint64`` words.

    Words are little-endian: bit ``k`` of the cover lives at bit
    ``k % 64`` of word ``k // 64``.  Bits past ``n_bits`` (the padding of
    the last word) are kept clear by every constructor and operation, so
    :meth:`support` never over-counts.
    """

    __slots__ = ("words", "n_bits")

    def __init__(self, words: np.ndarray, n_bits: int):
        self.words = words
        self.n_bits = n_bits

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_bools(cls, bits: "Iterable[bool] | np.ndarray") -> "CoverSet":
        """Pack a dense boolean array."""
        arr = np.asarray(bits, dtype=bool)
        n = len(arr)
        n_words = (n + WORD_BITS - 1) // WORD_BITS
        packed = np.packbits(arr, bitorder="little")
        buffer = np.zeros(n_words * 8, dtype=np.uint8)
        buffer[: len(packed)] = packed
        return cls(buffer.view(WORD_DTYPE), n)

    @classmethod
    def from_indices(cls, indices: "Iterable[int] | np.ndarray",
                     n_bits: int) -> "CoverSet":
        """Build from covered-transaction positions."""
        idx = np.asarray(
            indices if isinstance(indices, np.ndarray) else list(indices),
            dtype=np.int64,
        )
        arr = np.zeros(n_bits, dtype=bool)
        if len(idx):
            if idx.min() < 0 or idx.max() >= n_bits:
                raise MiningError("bit index out of range")
            arr[idx] = True
        return cls.from_bools(arr)

    @classmethod
    def zeros(cls, n_bits: int) -> "CoverSet":
        """The empty cover."""
        n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
        return cls(np.zeros(n_words, dtype=WORD_DTYPE), n_bits)

    @classmethod
    def ones(cls, n_bits: int) -> "CoverSet":
        """The full cover (padding bits stay clear)."""
        n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
        words = np.full(n_words, 0xFFFFFFFFFFFFFFFF, dtype=WORD_DTYPE)
        tail_bits = n_bits - (n_words - 1) * WORD_BITS if n_words else 0
        if n_words and tail_bits < WORD_BITS:
            words[-1] = (1 << tail_bits) - 1
        return cls(words, n_bits)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def _check_size(self, other: "CoverSet") -> None:
        if self.n_bits != other.n_bits:
            raise MiningError(
                f"cover sizes differ: {self.n_bits} vs {other.n_bits}"
            )

    def __and__(self, other: "CoverSet") -> "CoverSet":
        self._check_size(other)
        return CoverSet(self.words & other.words, self.n_bits)

    def __or__(self, other: "CoverSet") -> "CoverSet":
        self._check_size(other)
        return CoverSet(self.words | other.words, self.n_bits)

    def __xor__(self, other: "CoverSet") -> "CoverSet":
        self._check_size(other)
        return CoverSet(self.words ^ other.words, self.n_bits)

    def support(self) -> int:
        """Number of covered transactions (popcount)."""
        return popcount_words(self.words)

    def intersect_support(self, other: "CoverSet") -> int:
        """Popcount of the AND without materialising the result."""
        self._check_size(other)
        return popcount_words(self.words & other.words)

    def to_bools(self) -> np.ndarray:
        """Materialise into a dense boolean array."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return bits[: self.n_bits].astype(bool)

    def to_indices(self) -> np.ndarray:
        """Positions of the covered transactions."""
        return np.flatnonzero(self.to_bools())

    # Dense-array conveniences: ``sum()``, ``tolist()``, ``all()``,
    # ``any()`` read like the boolean mask the cover stands for.

    def sum(self) -> int:
        """Alias of :meth:`support`."""
        return self.support()

    def tolist(self) -> "list[bool]":
        """Dense boolean list."""
        return self.to_bools().tolist()

    def all(self) -> bool:
        """True when every transaction is covered."""
        return self.support() == self.n_bits

    def any(self) -> bool:
        """True when at least one transaction is covered."""
        return self.support() > 0

    def __len__(self) -> int:
        return self.n_bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverSet):
            return NotImplemented
        return self.n_bits == other.n_bits and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:
        return hash((self.n_bits, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"CoverSet(n_bits={self.n_bits}, set={self.support()})"


#: A cover is a :class:`CoverSet`; the shorter name reads better in hints.
Cover = CoverSet


def cover_matrix(covers: "list[CoverSet]", n_bits: int) -> np.ndarray:
    """Covers stacked as one ``(len(covers), n_words)`` word matrix."""
    n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
    out = np.zeros((len(covers), n_words), dtype=WORD_DTYPE)
    for row, cover in enumerate(covers):
        out[row] = cover.words
    return out


def cover_digest(cover: CoverSet) -> bytes:
    """A 16-byte content digest of a cover's bit pattern.

    Covers with equal bits get equal digests, so the digest can key
    cover-equivalence classes (the closed-itemset dedup) across process
    boundaries — unlike Python's ``hash()``, which is salted per
    process.
    """
    return hashlib.blake2b(cover.words.tobytes(), digest_size=16).digest()


def as_cover(value: "CoverSet | np.ndarray | Iterable[bool]") -> CoverSet:
    """Coerce a value into a :class:`CoverSet` (no-op when it is one)."""
    if isinstance(value, CoverSet):
        return value
    return CoverSet.from_bools(np.asarray(value, dtype=bool))
