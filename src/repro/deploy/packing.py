"""{-1,+1} <-> packed ``uint64`` codecs.

Conventions
-----------
* A *sign vector* is any array whose last axis holds values in
  ``{-1.0, +1.0}`` (the output domain of every binarizer in
  :mod:`repro.binarize`).
* Packing maps ``+1 -> bit 1`` and ``-1 -> bit 0``, little-endian within
  each 64-bit word: element ``i`` of a row lands in word ``i // 64`` at
  bit ``i % 64``.
* Rows whose length is not a multiple of 64 are padded with 0-bits.  The
  XNOR-GEMM identity ``dot = K - 2 * popcount(a ^ b)`` is unaffected as
  long as *both* operands pad with the same bit (the paddings XNOR to
  "agree" and the constant ``K`` already excludes them — see
  :func:`repro.deploy.kernels.binary_gemm`).

Performance notes
-----------------
``pack_signs`` writes the thresholded bits straight into a
64-bit-aligned buffer and packs with ``np.packbits(..., bitorder
="little")`` — no concatenate-for-padding, no per-byte bit reversal, no
trailing dtype copy (the returned array is a zero-copy view of the
packed bytes).  The popcount itself is NumPy's ``np.bitwise_count``
ufunc (POPCNT / AVX512-VPOPCNTDQ under the hood), called directly by
the GEMM.
"""

from __future__ import annotations

import numpy as np

#: Number of bits per packed word.
WORD_BITS = 64


def packed_words(n_bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def pack_signs(signs: np.ndarray) -> np.ndarray:
    """Pack a sign array along its last axis into ``uint64`` words.

    Parameters
    ----------
    signs:
        Array of shape ``(..., K)`` with values in {-1, +1} (anything
        ``>= 0`` counts as +1, mirroring the forward ``sign`` used by
        every binarizer in this repo).

    Returns
    -------
    ``uint64`` array of shape ``(..., packed_words(K))``.
    """
    signs = np.asarray(signs)
    if signs.ndim == 0:
        raise ValueError("pack_signs needs at least one axis")
    *lead, k = signs.shape
    n_words = packed_words(k)
    rows = int(np.prod(lead, dtype=np.int64)) if lead else 1
    # Threshold directly into a word-aligned bit buffer: the tail bits
    # beyond K stay 0, which is exactly the padding convention above.
    bits = np.zeros((rows, n_words * WORD_BITS), dtype=np.uint8)
    np.greater_equal(signs.reshape(rows, k), 0, out=bits[:, :k])
    # bitorder="little" matches the LSB-first convention, so the packed
    # bytes ARE the little-endian words — view them, don't copy them.
    packed_bytes = np.packbits(bits, axis=1, bitorder="little")
    words = packed_bytes.view("<u8")
    return words.reshape(*lead, n_words)


def unpack_signs(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_signs`: recover the {-1, +1} sign array."""
    packed = np.asarray(packed, dtype=np.uint64)
    *lead, n_words = packed.shape
    if packed_words(n_bits) != n_words:
        raise ValueError(
            f"packed array has {n_words} words, expected {packed_words(n_bits)} "
            f"for {n_bits} bits")
    flat = np.ascontiguousarray(packed.reshape(-1, n_words)).astype("<u8")
    as_bytes = flat.view(np.uint8).reshape(flat.shape[0], n_words * 8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :n_bits]
    signs = np.where(bits > 0, 1.0, -1.0)
    return signs.reshape(*lead, n_bits)
