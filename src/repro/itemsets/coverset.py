"""Cover sets: the one transaction-mask representation of the system.

A *cover* is the set of transactions containing an itemset.  Every layer
of the pipeline manipulates covers — the Eclat DFS intersects them, the
closed-itemset filter compares their cardinalities, the cube builder
splits them into per-unit counts — so their representation is the single
most performance-critical data-structure choice in the system.

This module defines the :class:`Cover` interface and its codecs:

* :class:`CoverSet` — the default *packed-bitmap* codec: one bit per
  transaction packed into little-endian ``uint64`` words.  Intersection
  is a vectorized word-wise AND over ``n/64`` words and support is a
  vectorized popcount, i.e. 8× less memory traffic and word-level (not
  byte-level) logic compared to a dense ``bool`` array.
* :class:`DenseCover` — the dense NumPy ``bool`` codec, kept as the
  easy-to-inspect reference implementation and the benchmark baseline.
* ``"ewah"`` — :class:`~repro.itemsets.bitmap.EWAHBitmap`, the
  run-length-compressed codec reproducing the original SCube's JavaEWAH
  storage choice (registered lazily to avoid an import cycle).

All codecs implement the same interface, so the miners, the closure
operator and the cube builders are codec-agnostic: pick one with
``TransactionDatabase(..., codec=...)`` and every downstream result is
bit-identical (property-tested in ``tests/test_cover_engine.py``).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

import numpy as np

from repro.errors import MiningError

WORD_BITS = 64

# Explicit little-endian words: ``np.packbits(..., bitorder="little")``
# emits bytes in little-endian bit order, so the word view must match on
# big-endian hosts too (same convention as bitmap.py's ``view("<u8")``).
WORD_DTYPE = np.dtype("<u8")

# Bits-set-per-byte lookup table, the popcount fallback for NumPy < 2.0
# (NumPy 2.x has a native vectorized ``np.bitwise_count``).
_POPCOUNT_LUT = np.array(
    [bin(byte).count("1") for byte in range(256)], dtype=np.uint8
)


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across an array of ``uint64`` words."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT_LUT[words.view(np.uint8)].sum())


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of a 2-D ``uint64`` word matrix (``int64`` vector)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    per_byte = _POPCOUNT_LUT[words.view(np.uint8)]
    return per_byte.reshape(words.shape[0], -1).sum(axis=1, dtype=np.int64)


class Cover:
    """Abstract cover interface shared by every codec.

    Subclasses provide the representation-specific primitives —
    ``from_bools`` / ``from_indices`` / ``zeros`` / ``ones``
    constructors, ``__and__``, :meth:`support`, :meth:`to_bools` and
    ``__len__`` — and inherit the derived conveniences below, which also
    keep covers duck-compatible with the old dense ``bool`` arrays
    (``sum()``, ``tolist()``, ``all()``).
    """

    __slots__ = ()

    @classmethod
    def from_bools(cls, bits: "Iterable[bool] | np.ndarray") -> "Cover":
        """Build from a dense boolean array."""
        raise NotImplementedError

    @classmethod
    def from_indices(cls, indices: "Iterable[int] | np.ndarray",
                     n_bits: int) -> "Cover":
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

    def support(self) -> int:
        """Number of covered transactions (popcount)."""
        raise NotImplementedError

    def to_bools(self) -> np.ndarray:
        """Materialise into a dense boolean array."""
        raise NotImplementedError

    def sum(self) -> int:
        """Alias of :meth:`support` (dense-array compatibility)."""
        return self.support()

    def tolist(self) -> "list[bool]":
        """Dense boolean list (dense-array compatibility)."""
        return self.to_bools().tolist()

    def all(self) -> bool:
        """True when every transaction is covered."""
        return self.support() == len(self)

    def any(self) -> bool:
        """True when at least one transaction is covered."""
        return self.support() > 0

    def to_indices(self) -> np.ndarray:
        """Positions of the covered transactions."""
        return np.flatnonzero(self.to_bools())

    def __len__(self) -> int:
        raise NotImplementedError


class CoverSet(Cover):
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

    def support(self) -> int:
        return popcount_words(self.words)

    def intersect_support(self, other: "CoverSet") -> int:
        """Popcount of the AND without materialising the result."""
        self._check_size(other)
        return popcount_words(self.words & other.words)

    def to_bools(self) -> np.ndarray:
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return bits[: self.n_bits].astype(bool)

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


def cover_words(cover: "Cover") -> np.ndarray:
    """Any cover's bits as packed little-endian ``uint64`` words.

    Packed covers return their own words (no copy); other codecs are
    packed first, so word-level kernels stay codec-agnostic.
    """
    if isinstance(cover, CoverSet):
        return cover.words
    return CoverSet.from_bools(cover.to_bools()).words


def cover_matrix(covers: "list[Cover]", n_bits: int) -> np.ndarray:
    """Covers stacked as one ``(len(covers), n_words)`` word matrix."""
    n_words = (n_bits + WORD_BITS - 1) // WORD_BITS
    out = np.zeros((len(covers), n_words), dtype=WORD_DTYPE)
    for row, cover in enumerate(covers):
        out[row] = cover_words(cover)
    return out


class DenseCover(Cover):
    """Dense boolean-array cover: the pre-packed reference codec."""

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        self.bits = np.asarray(bits, dtype=bool)

    @classmethod
    def from_bools(cls, bits: "Iterable[bool] | np.ndarray") -> "DenseCover":
        return cls(np.array(bits, dtype=bool))

    @classmethod
    def zeros(cls, n_bits: int) -> "DenseCover":
        return cls(np.zeros(n_bits, dtype=bool))

    @classmethod
    def ones(cls, n_bits: int) -> "DenseCover":
        return cls(np.ones(n_bits, dtype=bool))

    def __and__(self, other: "DenseCover") -> "DenseCover":
        if len(self.bits) != len(other.bits):
            raise MiningError(
                f"cover sizes differ: {len(self.bits)} vs {len(other.bits)}"
            )
        return DenseCover(self.bits & other.bits)

    def __or__(self, other: "DenseCover") -> "DenseCover":
        if len(self.bits) != len(other.bits):
            raise MiningError(
                f"cover sizes differ: {len(self.bits)} vs {len(other.bits)}"
            )
        return DenseCover(self.bits | other.bits)

    def support(self) -> int:
        return int(np.count_nonzero(self.bits))

    def to_bools(self) -> np.ndarray:
        return self.bits

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseCover):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((len(self.bits), self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"DenseCover(n_bits={len(self.bits)}, set={self.support()})"


COVER_CODECS = ("packed", "bool", "ewah")


def get_codec(name: str) -> "type[Cover]":
    """Resolve a codec name to its :class:`Cover` implementation."""
    if name == "packed":
        return CoverSet
    if name == "bool":
        return DenseCover
    if name == "ewah":
        # Imported lazily: bitmap.py subclasses Cover from this module.
        from repro.itemsets.bitmap import EWAHBitmap

        return EWAHBitmap
    raise MiningError(
        f"unknown cover codec {name!r}; choose from {COVER_CODECS}"
    )


def cover_digest(cover: Cover) -> bytes:
    """A 16-byte content digest of a cover's bit pattern.

    Covers with equal bits get equal digests, so the digest can key
    cover-equivalence classes (the closed-itemset dedup) across process
    boundaries — unlike Python's ``hash()``, which is salted per
    process.  Packed covers digest their word bytes directly; other
    codecs pack first, so the digest is stable under the DFS's ``&``
    chain within any one codec.
    """
    if isinstance(cover, CoverSet):
        data = cover.words.tobytes()
    else:
        data = np.packbits(cover.to_bools(), bitorder="little").tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


def as_cover(value: "Cover | np.ndarray | Iterable[bool]",
             codec: str = "packed") -> Cover:
    """Coerce a value into a :class:`Cover` (no-op when it already is one)."""
    if isinstance(value, Cover):
        return value
    return get_codec(codec).from_bools(np.asarray(value, dtype=bool))
