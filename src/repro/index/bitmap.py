"""Word-packed bitmaps.

Bitmaps are the workhorse of the paper's index-based star join: per-dimension
bitmaps are OR-ed within a dimension, AND-ed across dimensions, and (in the
shared index join of Section 3.2) the per-query result bitmaps are OR-ed so
the base table is probed only once.

Bits index global row positions of one table.  The implementation packs bits
into a ``numpy`` ``uint64`` array so the AND/OR/NOT kernels run at word
granularity — which is also the unit the cost model charges
(:func:`~repro.storage.iostats.merge_counts`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

WORD_BITS = 64


def _n_words(n_bits: int) -> int:
    return (n_bits + WORD_BITS - 1) // WORD_BITS


class Bitmap:
    """A fixed-length bitmap over row positions ``0 .. n_bits-1``."""

    __slots__ = ("n_bits", "words")

    def __init__(self, n_bits: int, words: np.ndarray | None = None):
        if n_bits < 0:
            raise ValueError("bitmap length cannot be negative")
        self.n_bits = n_bits
        if words is None:
            words = np.zeros(_n_words(n_bits), dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (_n_words(n_bits),):
                raise ValueError("words array has wrong dtype or shape")
        self.words = words

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, n_bits: int) -> "Bitmap":
        """An all-clear bitmap of the given length."""
        return cls(n_bits)

    @classmethod
    def ones(cls, n_bits: int) -> "Bitmap":
        """An all-set bitmap of the given length (tail bits masked)."""
        bm = cls(n_bits)
        bm.words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        bm._mask_tail()
        return bm

    @classmethod
    def from_positions(cls, n_bits: int, positions: Iterable[int]) -> "Bitmap":
        """A bitmap with exactly the given positions set."""
        bm = cls(n_bits)
        bm.set_positions(np.fromiter(positions, dtype=np.int64))
        return bm

    @classmethod
    def from_bool_array(cls, mask: np.ndarray) -> "Bitmap":
        """Build from a boolean numpy array of length ``n_bits``."""
        mask = np.asarray(mask, dtype=bool)
        bm = cls(mask.size)
        padded = np.zeros(_n_words(mask.size) * WORD_BITS, dtype=bool)
        padded[: mask.size] = mask
        # numpy packs bits MSB-first per byte; flip within bytes to get
        # LSB-first order consistent with our (pos % 64) shift convention.
        bits = padded.reshape(-1, 8)[:, ::-1]
        bm.words = np.packbits(bits.reshape(-1)).view(np.uint64).copy()
        return bm

    # -- bit access -----------------------------------------------------------

    def get(self, position: int) -> bool:
        """Look an entry up (None/raise per class contract)."""
        if not 0 <= position < self.n_bits:
            raise IndexError(f"bit {position} out of range 0..{self.n_bits - 1}")
        word, offset = divmod(position, WORD_BITS)
        return bool((int(self.words[word]) >> offset) & 1)

    def set(self, position: int, value: bool = True) -> None:
        """Set (or clear) one bit."""
        if not 0 <= position < self.n_bits:
            raise IndexError(f"bit {position} out of range 0..{self.n_bits - 1}")
        word, offset = divmod(position, WORD_BITS)
        if value:
            self.words[word] |= np.uint64(1) << np.uint64(offset)
        else:
            self.words[word] &= ~(np.uint64(1) << np.uint64(offset))

    def set_positions(self, positions: np.ndarray) -> None:
        """Set every bit in an int64 array of positions."""
        if positions.size:
            if positions.min() < 0 or positions.max() >= self.n_bits:
                raise IndexError("position out of bitmap range")
            np.bitwise_or.at(
                self.words,
                positions // WORD_BITS,
                np.uint64(1) << (positions % WORD_BITS).astype(np.uint64),
            )

    # -- algebra ---------------------------------------------------------------

    def _check_compatible(self, other: "Bitmap") -> None:
        if self.n_bits != other.n_bits:
            raise ValueError(
                f"bitmap length mismatch: {self.n_bits} vs {other.n_bits}"
            )

    def __and__(self, other: "Bitmap") -> "Bitmap":
        self._check_compatible(other)
        return Bitmap(self.n_bits, self.words & other.words)

    def __or__(self, other: "Bitmap") -> "Bitmap":
        self._check_compatible(other)
        return Bitmap(self.n_bits, self.words | other.words)

    def __xor__(self, other: "Bitmap") -> "Bitmap":
        self._check_compatible(other)
        return Bitmap(self.n_bits, self.words ^ other.words)

    def __invert__(self) -> "Bitmap":
        bm = Bitmap(self.n_bits, ~self.words)
        bm._mask_tail()
        return bm

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.n_bits == other.n_bits and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:  # bitmaps are mutable; identity hash is unsafe
        raise TypeError("Bitmap is unhashable")

    # -- inspection -------------------------------------------------------------

    @property
    def n_words(self) -> int:
        """Number of 64-bit words backing the bitmap."""
        return self.words.size

    def count(self) -> int:
        """Number of set bits."""
        return int(np.sum(np.bitwise_count(self.words)))

    def any(self) -> bool:
        """True if at least one bit is set."""
        return bool(np.any(self.words))

    def positions(self) -> np.ndarray:
        """Sorted array of set-bit positions."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits.view(bool)[: self.n_bits])

    def to_bool_array(self) -> np.ndarray:
        """Boolean numpy array of length n_bits."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return bits[: self.n_bits].astype(bool)

    def copy(self) -> "Bitmap":
        """An independent copy."""
        return Bitmap(self.n_bits, self.words.copy())

    def _mask_tail(self) -> None:
        """Clear the padding bits beyond ``n_bits`` in the last word."""
        tail = self.n_bits % WORD_BITS
        if self.words.size and tail:
            keep = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
            self.words[-1] &= keep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bitmap({self.count()}/{self.n_bits} bits set)"


def or_all(bitmaps: Sequence[Bitmap], n_bits: int | None = None) -> Bitmap:
    """OR a sequence of bitmaps (an empty sequence needs ``n_bits``)."""
    if not bitmaps:
        if n_bits is None:
            raise ValueError("or_all of no bitmaps requires n_bits")
        return Bitmap.zeros(n_bits)
    out = bitmaps[0].copy()
    for bm in bitmaps[1:]:
        out._check_compatible(bm)
        out.words |= bm.words
    return out


def and_all(bitmaps: Sequence[Bitmap], n_bits: int | None = None) -> Bitmap:
    """AND a sequence of bitmaps (an empty sequence yields all-ones)."""
    if not bitmaps:
        if n_bits is None:
            raise ValueError("and_all of no bitmaps requires n_bits")
        return Bitmap.ones(n_bits)
    out = bitmaps[0].copy()
    for bm in bitmaps[1:]:
        out._check_compatible(bm)
        out.words &= bm.words
    return out
