"""Bit-packed binary hypervectors: 64 cells per ``uint64`` word.

A binary (sign) hypervector carries one bit of information per dimension,
yet the unpacked 1-bit deploy path stores one integer per cell and scores
through float arithmetic.  This module packs binary hypervectors 64 cells
per ``uint64`` word and scores them with XOR + popcount, collapsing a
D=4096 class vector from 4096 stored cells to 64 words (512 bytes) and
per-class similarity to a handful of cache-line reads.

Bit layout and padding contract
-------------------------------

- Cell ``j`` of a row maps to bit ``j % 8`` of byte ``j // 8``
  (``np.packbits(..., bitorder="little")``), and bytes are viewed as
  little-end-first ``uint64`` words, so cell ``j`` is bit ``j % 64`` of
  word ``j // 64`` on every platform NumPy supports (byte order within a
  word follows the native layout, which is consistent within a process;
  persisted artifacts store *codes*, not words, so packed words never
  cross machines).
- A row of ``D`` cells occupies ``W = ceil(D / 64)`` words.  When
  ``D % 64 != 0`` the trailing ``64*W - D`` **pad bits are always zero**,
  on queries and memory alike.  XOR of two padded rows is therefore zero
  in the pad region and popcount-based Hamming distances need no masking.
  Every producer in this module guarantees the contract; consumers
  (including :func:`flip_packed_bits`) must preserve it.

Popcount selection
------------------

The fast path uses :func:`numpy.bitwise_count` (NumPy >= 2.0).  The
declared floor is ``numpy>=1.21``, so at import time this module selects a
256-entry lookup-table fallback operating on the ``uint8`` view when
``bitwise_count`` is missing.  All call sites dispatch through the module
attribute :data:`popcount_words`, so tests can monkeypatch it to force the
fallback and assert bit-identical scores.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "WORD_BITS",
    "HAS_BITWISE_COUNT",
    "words_per_row",
    "packed_nbytes",
    "pack_bool_rows",
    "pack_sign_rows",
    "pack_code_rows",
    "unpack_rows",
    "popcount_words",
    "popcount_words_native",
    "popcount_words_lut",
    "hamming_counts_packed",
    "hamming_scores_packed",
    "flip_packed_bits",
]

#: Cells per packed word.
WORD_BITS = 64

#: Bytes per packed word.
_WORD_BYTES = 8

#: Whether this NumPy build has ``np.bitwise_count`` (NumPy >= 2.0).
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Popcount of every byte value — the NumPy < 2.0 fallback table.
_POPCOUNT_TABLE = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def words_per_row(dim: int) -> int:
    """Packed words per row of ``dim`` cells: ``ceil(dim / 64)``."""
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    return (int(dim) + WORD_BITS - 1) // WORD_BITS


def packed_nbytes(n_rows: int, dim: int) -> int:
    """Bytes occupied by ``n_rows`` packed rows of ``dim`` cells."""
    return int(n_rows) * words_per_row(dim) * _WORD_BYTES


def _check_words(words: np.ndarray, name: str = "words") -> np.ndarray:
    arr = np.asarray(words)
    if arr.dtype != np.uint64:
        raise TypeError(
            f"{name} must be uint64 packed words, got dtype {arr.dtype}"
        )
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


def _bytes_to_words(packed_bytes: np.ndarray, dim: int) -> np.ndarray:
    """View ``(n, ceil(dim/8))`` packed bytes as ``(n, W)`` uint64 words,
    zero-padding the trailing bytes when ``dim`` is not word-aligned."""
    n = packed_bytes.shape[0]
    want = words_per_row(dim) * _WORD_BYTES
    have = packed_bytes.shape[1]
    if have != want:
        padded = np.zeros((n, want), dtype=np.uint8)
        padded[:, :have] = packed_bytes
        packed_bytes = padded
    elif not packed_bytes.flags["C_CONTIGUOUS"]:
        packed_bytes = np.ascontiguousarray(packed_bytes)
    return packed_bytes.view(np.uint64)


def pack_bool_rows(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, D)`` (or ``(D,)``) mask into ``(n, W)`` words.

    ``True`` cells become 1-bits; pad bits are zero per the module
    contract.  This is the innermost pack primitive — it does not copy the
    mask into an intermediate integer array, which matters on the serving
    hot path (see :meth:`repro.backend.base.ArrayBackend.packbits_rows`).
    """
    arr = np.asarray(mask)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.shape[1] == 0:
        raise ValueError("cannot pack rows of zero cells")
    packed_bytes = np.packbits(arr, axis=-1, bitorder="little")
    return _bytes_to_words(packed_bytes, arr.shape[1])


def pack_sign_rows(x: np.ndarray) -> np.ndarray:
    """Sign-binarise rows (``x >= 0`` → bit 1) and pack them to words.

    Matches the 1-bit quantization convention of
    :func:`repro.noise.quantization.quantize`: non-negative cells map to
    code 1, negative cells to code 0.
    """
    return pack_bool_rows(np.asarray(x) >= 0)


def pack_code_rows(codes: np.ndarray) -> np.ndarray:
    """Pack 1-bit quantization codes (``{0, 1}`` integers) to words.

    ``np.packbits`` treats any non-zero cell as a 1-bit, so ``uint8``
    code rows pack directly.
    """
    return pack_bool_rows(np.asarray(codes) != 0)


def unpack_rows(words: np.ndarray, dim: int) -> np.ndarray:
    """Unpack ``(n, W)`` words back to ``(n, dim)`` uint8 ``{0, 1}`` codes.

    Inverse of the pack functions; the pad bits are sliced off.
    """
    arr = _check_words(words)
    if arr.shape[1] != words_per_row(dim):
        raise ValueError(
            f"words have {arr.shape[1]} columns but dim={dim} needs "
            f"{words_per_row(dim)}"
        )
    as_bytes = np.ascontiguousarray(arr).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[:, : int(dim)]


def popcount_words_native(words: np.ndarray) -> np.ndarray:
    """Per-word popcount via ``np.bitwise_count`` (NumPy >= 2.0)."""
    return np.bitwise_count(words)


def popcount_words_lut(words: np.ndarray) -> np.ndarray:
    """Per-word popcount via a 256-entry byte lookup table.

    The NumPy < 2.0 fallback: views the words as bytes, maps each byte
    through the table and sums the 8 byte-counts back per word.  Exact for
    every input; slower than the native path but bit-identical.
    """
    arr = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
    byte_counts = _POPCOUNT_TABLE[arr.view(np.uint8)]
    per_word = byte_counts.reshape(arr.shape + (_WORD_BYTES,))
    return per_word.sum(axis=-1, dtype=np.uint64)


#: Selected popcount implementation.  Chosen at import time from the
#: running NumPy; call through the module attribute
#: (``packed.popcount_words``) so a monkeypatch can force the fallback.
popcount_words: Callable[[np.ndarray], np.ndarray] = (
    popcount_words_native if HAS_BITWISE_COUNT else popcount_words_lut
)


def hamming_counts_packed(
    q_words: np.ndarray,
    m_words: np.ndarray,
) -> np.ndarray:
    """Raw Hamming distances (differing-bit counts) between packed rows.

    ``q_words`` is ``(n, W)``, ``m_words`` is ``(k, W)``; returns an
    ``(n, k)`` int64 count matrix via XOR + popcount.  With the pad-bit
    contract in force the pad region XORs to zero and contributes nothing.
    This is the reference kernel: it builds the whole ``(n, k, W)`` XOR
    temporary, where ``NumpyBackend``'s tuned kernel streams it in
    :func:`repro.backend.base.auto_chunk_rows` windows.
    """
    Q = _check_words(q_words, "q_words")
    M = _check_words(m_words, "m_words")
    if Q.shape[1] != M.shape[1]:
        raise ValueError(
            f"q_words and m_words disagree on word count: "
            f"{Q.shape[1]} vs {M.shape[1]}"
        )
    xor = Q[:, None, :] ^ M[None, :, :]
    return popcount_words(xor).sum(axis=-1, dtype=np.int64)


def hamming_scores_packed(
    q_words: np.ndarray,
    m_words: np.ndarray,
    dim: int,
) -> np.ndarray:
    """Similarity scores ``(dim - 2*hamming) / dim`` between packed rows.

    The bipolar analogue of cosine similarity: identical rows score 1.0,
    complementary rows -1.0, and the score is a strictly decreasing
    function of Hamming distance, so argmax rankings match any other
    monotone Hamming scoring.  Returns ``(n, k)`` float64.
    """
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    counts = hamming_counts_packed(q_words, m_words)
    scale = np.float64(dim)
    return (scale - 2.0 * counts.astype(np.float64)) / scale


def flip_packed_bits(
    words: np.ndarray,
    n_flips: int,
    dim: int,
    rng: np.random.Generator,
) -> int:
    """XOR exactly ``n_flips`` distinct payload bits of packed rows, in place.

    Fault injection in the packed domain: draws ``n_flips`` distinct cell
    positions uniformly over the ``n_rows * dim`` **payload** bits (pad
    bits are never touched, preserving the padding contract) and flips
    each with a literal XOR mask.  Returns the number of bits flipped.
    """
    arr = _check_words(words)
    if arr.shape[1] != words_per_row(dim):
        raise ValueError(
            f"words have {arr.shape[1]} columns but dim={dim} needs "
            f"{words_per_row(dim)}"
        )
    total = arr.shape[0] * int(dim)
    n_flips = int(n_flips)
    if n_flips < 0 or n_flips > total:
        raise ValueError(
            f"n_flips must be in [0, {total}], got {n_flips}"
        )
    if n_flips == 0:
        return 0
    positions = rng.choice(total, size=n_flips, replace=False)
    rows = positions // dim
    cells = positions % dim
    word_cols = (cells // WORD_BITS).astype(np.int64)
    masks = np.uint64(1) << (cells % WORD_BITS).astype(np.uint64)
    np.bitwise_xor.at(arr, (rows.astype(np.int64), word_cols), masks)
    return n_flips
