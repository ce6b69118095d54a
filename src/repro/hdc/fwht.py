"""Fast Walsh–Hadamard transform over row batches.

The structured-projection encoders (SORF/Fastfood,
:mod:`repro.hdc.encoders.structured`) replace the dense ``(D, q)`` Gaussian
projection with chains of ``H · diag(±1)`` factors, where ``H`` is the
(unnormalised, Hadamard-ordered) Walsh–Hadamard matrix of a power-of-two
order ``m``:

    H_1 = [1],   H_2m = [[H_m, H_m], [H_m, -H_m]]

Applying ``H`` naively is an ``O(m²)`` matmul; this module applies it in
``O(m^1.5)`` arithmetic that runs at BLAS speed via the Kronecker
factorisation ``H_m = H_f1 ⊗ H_f2 ⊗ … ⊗ H_fk`` (balanced factors of order
≤ 128).  Each factor is one *high-radix butterfly stage* executed as a
batched GEMM along its axis of the row viewed as an ``(f1, …, fk)`` tensor —
for the common two-factor case, ``row ↦ H_a · mat(row) · H_b``.  This beats
the classic radix-2 butterfly by an order of magnitude here because the
±1-matrix GEMMs run on the BLAS kernels while stride-1/2/4 butterfly passes
are NumPy-dispatch-bound.  Three properties the encoders rely on:

- **Unnormalised convention** — ``fwht_rows_inplace(x)`` computes ``x @ H``
  exactly (``H`` symmetric, entries ±1, ``H @ H == m·I``).  Callers fold any
  ``1/√m``-style normalisation into their own scaling diagonal, keeping the
  transform itself integer-exact: for inputs whose entries are integers,
  every intermediate is an integer too, so the float result is
  *bit-identical* to the ``H``-matrix reference at float64 (the property the
  perf harness asserts).
- **Row-count-invariant rounding** — every GEMM is batched with a
  *per-sample-fixed* operand shape (``(f, post) @ (f, f)`` style), never
  flattened into one variable-height GEMM: BLAS picks kernels (and hence
  summation order) by operand shape, so a lone row routed through ``gemv``
  would round differently than the same row inside a taller batch.  Fixed
  shapes make the transform of a row bit-identical no matter how many
  neighbours it is batched with — the invariant windowed encodes
  (``StagedModel``, fleet batches) and ``shard_fit`` determinism need.
- **In place** — the transform overwrites its input (ping-ponging with one
  scratch buffer), so encoder pipelines (``H D₃ H D₂ H D₁ x``) reuse one
  work buffer across the whole chain.  Rows are processed in cache-sized
  chunks so a chunk plus its scratch stay resident across all stages.

Backends expose this through :meth:`repro.backend.base.ArrayBackend.fwht_rows`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.base import auto_chunk_rows

__all__ = [
    "is_pow2",
    "next_pow2",
    "hadamard_matrix",
    "fwht_rows_inplace",
    "fwht_rows",
]

#: Largest Hadamard factor order applied as a single GEMM.  128² entries of
#: float64 is 128 KiB — L2-resident — and a 2⁷ radix keeps the factor count
#: at two for every realistic padded feature width (m ≤ 16384).
_MAX_FACTOR_BITS = 7


def is_pow2(n: int) -> bool:
    """Whether ``n`` is a positive power of two."""
    n = int(n)
    return n > 0 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    """Smallest power of two ``>= n`` (``n`` must be positive)."""
    n = int(n)
    if n <= 0:
        raise ValueError(f"next_pow2 needs a positive size, got {n}")
    return 1 << (n - 1).bit_length()


def hadamard_matrix(order: int, dtype: np.dtype = np.float64) -> np.ndarray:
    """The naive ``(order, order)`` Walsh–Hadamard matrix (Sylvester form).

    The ``O(m²)`` reference the fast transform is verified against;
    ``order`` must be a power of two.
    """
    if not is_pow2(order):
        raise ValueError(f"Hadamard order must be a power of two, got {order}")
    H = np.ones((1, 1), dtype=np.dtype(dtype))
    while H.shape[0] < order:
        H = np.block([[H, H], [H, -H]])
    return H


#: Cached small Hadamard factors, keyed by (order, dtype).
_H_FACTORS: dict = {}


def _h_factor(order: int, dtype: np.dtype) -> np.ndarray:
    key = (order, np.dtype(dtype))
    H = _H_FACTORS.get(key)
    if H is None:
        H = hadamard_matrix(order, dtype=key[1])
        _H_FACTORS[key] = H
    return H


def _factor_orders(m: int) -> Tuple[int, ...]:
    """Balanced Kronecker factor orders (each ≤ 2^_MAX_FACTOR_BITS) for ``m``.

    ``log₂ m`` is split as evenly as possible across the minimum factor
    count: balance minimises the arithmetic, ``m · Σ fᵢ`` (e.g. 1024 → 32·32
    at 64·m multiplies, versus 136·m for the lopsided 128·8 split).
    """
    bits = m.bit_length() - 1
    if bits <= _MAX_FACTOR_BITS:
        return (m,)
    k = -(-bits // _MAX_FACTOR_BITS)
    base, rem = divmod(bits, k)
    return tuple(
        1 << (base + 1 if i < rem else base) for i in range(k)
    )


def _fwht_chunk(x: np.ndarray, scratch: np.ndarray, factors: Tuple[int, ...]) -> None:
    """Transform one row chunk in place, ping-ponging with ``scratch``.

    Each Kronecker factor ``f`` is contracted along its own axis of the row
    viewed as an ``(f₁, …, f_k)`` tensor, as a batched GEMM whose per-sample
    operand shape is independent of the chunk's row count (see module
    docstring).  When the factor count is odd the final stage lands in
    ``scratch`` and one copy restores ``x``.
    """
    n, m = x.shape
    src, dst = x, scratch
    pre, post = 1, m
    for f in factors:
        post //= f
        H = _h_factor(f, x.dtype)
        if post == 1:
            np.matmul(
                src.reshape(n, pre, f), H, out=dst.reshape(n, pre, f)
            )
        else:
            np.matmul(
                H,
                src.reshape(n * pre, f, post),
                out=dst.reshape(n * pre, f, post),
            )
        src, dst = dst, src
        pre *= f
    if src is not x:
        np.copyto(x, src)


def fwht_rows_inplace(x: np.ndarray, chunk_rows: Optional[int] = None) -> np.ndarray:
    """Walsh–Hadamard-transform every row of ``x`` in place; returns ``x``.

    ``x`` must be a C-contiguous, writable 2-D float array whose column
    count is a power of two.  ``chunk_rows`` bounds the rows transformed per
    pass (default: a cache-sized count via
    :func:`repro.backend.base.auto_chunk_rows`), so the working set —
    chunk plus one equal-sized scratch buffer — stays cache-resident across
    all stages.
    """
    if x.ndim != 2:
        raise ValueError(f"fwht_rows_inplace needs a 2-D array, got {x.ndim}-D")
    n, m = x.shape
    if not is_pow2(m):
        raise ValueError(
            f"fwht_rows_inplace needs a power-of-two column count, got {m}"
        )
    if not (x.flags.c_contiguous and x.flags.writeable):
        raise ValueError(
            "fwht_rows_inplace needs a C-contiguous writable array; "
            "pass a copy (or use fwht_rows)"
        )
    if m == 1 or n == 0:
        return x
    factors = _factor_orders(m)
    chunk = int(chunk_rows) if chunk_rows is not None else auto_chunk_rows(m)
    chunk = max(1, min(chunk, n))
    scratch = np.empty((chunk, m), dtype=x.dtype)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = stop - start
        _fwht_chunk(x[start:stop], scratch[:rows], factors)
    return x


def fwht_rows(x: np.ndarray, chunk_rows: Optional[int] = None) -> np.ndarray:
    """Out-of-place convenience wrapper: transform a float copy of ``x``."""
    arr = np.array(x, copy=True, order="C")  # repro: allow[backend-purity] copy preserves input dtype
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    if arr.ndim == 1:
        return fwht_rows_inplace(arr.reshape(1, -1), chunk_rows=chunk_rows)[0]
    return fwht_rows_inplace(arr, chunk_rows=chunk_rows)
