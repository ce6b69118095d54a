"""The default vectorised NumPy backend."""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.backend.base import _CHUNK_ELEMENTS, ArrayBackend

_EPS = 1e-12


def _row_norms(x: Any, keepdims: bool = False) -> Any:
    """``np.linalg.norm(x, axis=1, keepdims=keepdims)`` of a 2-D ``x``, bit
    for bit, without its ``(n, D)`` squared temporary.

    ``linalg.norm`` squares into a temporary laid out like ``x``, then
    reduces each row.  When rows are the outer axis (row stride at least
    the column stride: C-contiguous arrays and their row or column slices)
    each row reduces as one contiguous pairwise sum.  The kernel repeats
    that sum on row windows of ``_CHUNK_ELEMENTS`` entries (64 rows at
    D=4096, at least one row) squared into one reused, cache-resident
    buffer, and takes the square root in place: ~2.5x faster on a
    (2805, 4096) float32 training encoding (2-core Xeon VM).  A
    Fortran-ordered temporary reduces column by column and rounds
    differently, so other layouts, and dtypes other than float32/float64,
    fall back to ``linalg.norm``.
    """
    if not (
        type(x) is np.ndarray
        and x.dtype in (np.float32, np.float64)
        and abs(x.strides[1]) <= abs(x.strides[0])
    ):
        return np.linalg.norm(x, axis=1, keepdims=keepdims)
    n, dim = x.shape
    out = np.empty(n, dtype=x.dtype)
    rows = max(1, _CHUNK_ELEMENTS // max(dim, 1))
    window = np.empty((min(rows, n), dim), dtype=x.dtype)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        squares = window[: stop - start]
        np.multiply(x[start:stop], x[start:stop], out=squares)
        np.add.reduce(squares, axis=1, out=out[start:stop])
    np.sqrt(out, out=out)
    return out.reshape(n, 1) if keepdims else out


class NumpyBackend(ArrayBackend):
    """Reference :class:`~repro.backend.base.ArrayBackend` on NumPy arrays.

    All operations are plain vectorised NumPy; conversion methods are
    zero-copy whenever dtypes already match.
    """

    name = "numpy"

    # ------------------------------------------------------------ conversion

    def asarray(self, x: Any, dtype: Any = None) -> Any:
        return np.asarray(x, dtype=dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        return np.asarray(x)

    def is_native(self, x: Any) -> bool:
        return isinstance(x, np.ndarray)

    # ---------------------------------------------------------- construction

    def zeros(self, shape: Any, dtype: Any = np.float64) -> Any:
        return np.zeros(shape, dtype=dtype)

    def empty(self, shape: Any, dtype: Any = np.float64) -> Any:
        return np.empty(shape, dtype=dtype)

    def copy(self, x: Any) -> Any:
        return np.array(x, copy=True)  # repro: allow[backend-purity] copy preserves input dtype

    # ------------------------------------------------------------ arithmetic

    def matmul(self, a: Any, b: Any) -> Any:
        return a @ b

    def norm(
        self,
        x: Any,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> Any:
        if axis in (1, -1) and np.ndim(x) == 2:
            return _row_norms(x, keepdims)
        return np.linalg.norm(x, axis=axis, keepdims=keepdims)

    def cos(self, x: Any) -> Any:
        return np.cos(x)

    def sin(self, x: Any) -> Any:
        return np.sin(x)

    def tanh(self, x: Any) -> Any:
        return np.tanh(x)

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        return np.where(cond, a, b)

    def sum(
        self,
        x: Any,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> Any:
        return np.sum(x, axis=axis, keepdims=keepdims)

    def abs(self, x: Any) -> Any:
        return np.abs(x)

    def amin(
        self,
        x: Any,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> Any:
        return np.min(x, axis=axis, keepdims=keepdims)

    def amax(
        self,
        x: Any,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> Any:
        return np.max(x, axis=axis, keepdims=keepdims)

    def roll(self, x: Any, shift: int, axis: int = -1) -> Any:
        return np.roll(x, shift, axis=axis)

    def einsum(self, subscripts: str, *operands: Any) -> Any:
        return np.einsum(subscripts, *operands)

    def cosine_similarity(
        self,
        queries: Any,
        memory: Any,
        eps: float = _EPS,
        memory_norms: Any = None,
        query_norms: Any = None,
    ) -> Any:
        scores = queries @ memory.T
        q_norm = (
            np.asarray(query_norms).reshape(-1)
            if query_norms is not None
            else self.norm(queries, axis=1)
        )
        m_norm = (
            np.asarray(memory_norms).reshape(-1)
            if memory_norms is not None
            else self.norm(memory, axis=1)
        )
        denom = np.outer(q_norm, m_norm)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                denom > eps, scores / np.where(denom > eps, denom, 1.0), 0.0
            )

    def transpose(self, x: Any) -> Any:
        return x.T

    def ones_like(self, x: Any) -> Any:
        return np.ones_like(x)

    def zeros_like(self, x: Any) -> Any:
        return np.zeros_like(x)

    # -------------------------------------------------------------- indexing

    def take_rows(self, x: Any, idx: Any) -> Any:
        return x[np.asarray(idx, dtype=np.int64)]

    def set_rows(self, x: Any, idx: Any, values: Any) -> None:
        x[np.asarray(idx, dtype=np.int64)] = values

    def take_columns(self, x: Any, cols: Any) -> Any:
        return x[:, np.asarray(cols, dtype=np.int64)]

    def set_columns(self, x: Any, cols: Any, values: Any) -> None:
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values)
        # A column scatter on a C-contiguous matrix strides by the full row
        # width per element, so one pass over many rows thrashes the cache.
        # Writing in row windows produces identical results (~2.5x faster at
        # D=4096).  The scatter's inner loop walks a window's rows at the
        # row stride; when that is a multiple of 4 KiB every row maps to the
        # same L1D set (64 sets of 64 B), so such windows are capped at 8
        # rows, within the set's ways.  Other strides take ~128 KiB of rows,
        # at least 16: up to 2.5x faster than 43-85-row windows at
        # D=768-1500 and even at D=4000 (2-core Xeon VM).
        if (
            x.ndim == 2
            and values.ndim == 2
            and values.shape == (x.shape[0], cols.size)
        ):
            stride = max(abs(x.strides[0]), 1)
            if stride % 4096 == 0:
                chunk = 8
            else:
                chunk = max(16, (1 << 17) // stride)
            for start in range(0, x.shape[0], chunk):
                stop = start + chunk
                x[start:stop][:, cols] = values[start:stop]
        else:
            x[:, cols] = values

    def zero_columns(self, x: Any, cols: Any) -> None:
        x[:, np.asarray(cols, dtype=np.int64)] = 0

    def scatter_add_rows(self, target: Any, idx: Any, values: Any) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=target.dtype)
        n_rows = target.shape[0]
        # ufunc.at is an order of magnitude slower than BLAS; when many
        # updates land on few rows (the classifier case: m samples vs k
        # classes), reduce via a one-hot matmul instead.
        if values.ndim == 2 and idx.size > max(n_rows, 4):
            onehot = np.zeros((n_rows, idx.size), dtype=target.dtype)
            onehot[idx, np.arange(idx.size, dtype=np.int64)] = 1.0
            target += onehot @ values
        else:
            np.add.at(target, idx, values)

    def scatter_add_cells(
        self,
        target: Any,
        rows: Any,
        cols: Any,
        values: Any,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=target.dtype)
        n_rows = target.shape[0]
        # Same reduction trick as scatter_add_rows: ufunc.at walks cells one
        # at a time, so when many updates land on few rows (re-bundling a
        # training batch into k classes), grouping per target row via a
        # one-hot matmul and scattering the small (k, n_cols) result is
        # ~20x faster.  The final scatter goes through add.at when column
        # indices repeat, so duplicates accumulate exactly like the slow
        # path; strictly increasing non-negative columns (regenerated
        # dimensions) name each cell once, so a cheaper fancy-index add
        # gives the same bits.  A negative index may alias a positive one
        # (-1 and D-1), which the fancy-index add would apply only once.
        if (
            values.ndim == 2
            and values.shape == (rows.size, cols.size)
            and rows.size > max(n_rows, 4)
        ):
            onehot = np.zeros((n_rows, rows.size), dtype=target.dtype)
            onehot[rows, np.arange(rows.size, dtype=np.int64)] = 1.0
            grouped = onehot @ values
            increasing = bool(np.all(cols[1:] > cols[:-1]))
            if increasing and (cols.size == 0 or cols[0] >= 0):
                target[:, cols] += grouped
            else:
                np.add.at(
                    target,
                    (np.arange(n_rows, dtype=np.int64)[:, None], cols[None, :]),
                    grouped,
                )
        else:
            np.add.at(target, (rows[:, None], cols[None, :]), values)

    def argpartition_desc(self, x: Any, k: int, axis: int = -1) -> Any:
        if k >= np.shape(x)[axis]:
            return np.argsort(-np.asarray(x), axis=axis, kind="stable")
        return np.argpartition(-np.asarray(x), k - 1, axis=axis)

    def fwht_rows(self, x: Any) -> Any:
        # Transform genuinely in place when the caller hands a contiguous
        # writable float array (the encoder chains do); copy anything else.
        from repro.hdc.fwht import fwht_rows_inplace

        arr = np.asarray(x)
        if not (
            arr.ndim == 2
            and arr.flags.c_contiguous
            and arr.flags.writeable
            and np.issubdtype(arr.dtype, np.floating)
        ):
            arr = np.array(arr, copy=True, order="C")  # repro: allow[backend-purity] transform preserves input dtype
            if not np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
        return fwht_rows_inplace(arr)

    # ------------------------------------------------------- packed binary

    def packbits_rows(self, x: Any) -> np.ndarray:
        # packbits consumes the boolean sign mask directly (no intermediate
        # integer copy — this fused pack is what keeps the packed scorer
        # ahead of the float path on the serving hot path).
        from repro.hdc.packed import pack_sign_rows

        return pack_sign_rows(np.asarray(x))

    def hamming_scores_packed(
        self,
        q_words: Any,
        m_words: Any,
        dim: int,
    ) -> np.ndarray:
        # Tuned over the generic path: the (chunk, k, W) XOR temporary is
        # allocated once and reused across chunks (ufunc out=), and the
        # chunk is the cache-sized auto_chunk_rows budget instead of the
        # whole batch.
        from repro.backend.base import auto_chunk_rows
        from repro.hdc import packed as _packed

        Q = np.ascontiguousarray(np.asarray(q_words, dtype=np.uint64))
        M = np.ascontiguousarray(np.asarray(m_words, dtype=np.uint64))
        if Q.ndim == 1:
            Q = Q.reshape(1, -1)
        if M.ndim == 1:
            M = M.reshape(1, -1)
        if Q.shape[1] != M.shape[1]:
            raise ValueError(
                f"q_words and m_words disagree on word count: "
                f"{Q.shape[1]} vs {M.shape[1]}"
            )
        if dim <= 0 or _packed.words_per_row(dim) != Q.shape[1]:
            raise ValueError(
                f"dim={dim} does not match {Q.shape[1]} packed words"
            )
        n, width = Q.shape
        k = M.shape[0]
        chunk = max(1, min(auto_chunk_rows(max(k * width, 1)), max(n, 1)))
        out = np.empty((n, k), dtype=np.float64)
        xor_buf = np.empty((chunk, k, width), dtype=np.uint64)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            buf = xor_buf[: stop - start]
            np.bitwise_xor(
                Q[start:stop, None, :], M[None, :, :], out=buf
            )
            out[start:stop] = _packed.popcount_words(buf).sum(
                axis=-1, dtype=np.int64
            )
        # (dim - 2*counts) / dim, in place on the float64 output — the
        # same expression (and rounding) as the generic kernel, so tuned
        # and generic scores are bit-identical.
        np.multiply(out, -2.0, out=out)
        np.add(out, np.float64(dim), out=out)
        np.divide(out, np.float64(dim), out=out)
        return out

    # ---------------------------------------------------------- fused kernels

    def fused_absdiff_colsum(
        self,
        H: Any,
        rows: Any,
        C: Any,
        class_terms: Any,
        coeffs: Any,
        *,
        normalization: str = "l2",
        eps: float = _EPS,
    ) -> np.ndarray:
        # Same contract as the base implementation, but with every per-chunk
        # array preallocated once and reused (np.take/ufunc out= everywhere),
        # so the streaming loop performs zero heap allocation after the first
        # chunk and each chunk stays cache-resident while all terms consume it.
        from repro.backend.base import auto_chunk_rows

        if len(class_terms) != len(coeffs) or not class_terms:
            raise ValueError(
                f"class_terms and coeffs must be equal-length and non-empty, "
                f"got {len(class_terms)} terms and {len(coeffs)} coeffs"
            )
        H = np.asarray(H)
        if not np.issubdtype(H.dtype, np.floating):
            # Integer hypervectors need the promoting arithmetic of the
            # generic implementation; the in-place buffers here would
            # truncate the fractional coefficients and normalisation.
            return super().fused_absdiff_colsum(
                H, rows, C, class_terms, coeffs,
                normalization=normalization, eps=eps,
            )
        rows = np.asarray(rows, dtype=np.int64)
        dim = H.shape[1]
        if rows.size == 0:
            return np.zeros(dim, dtype=np.float64)
        C = np.asarray(C, dtype=H.dtype)
        terms = [np.asarray(t, dtype=np.int64) for t in class_terms]
        for t in terms:
            if t.shape[0] != rows.shape[0]:
                raise ValueError(
                    f"class term has {t.shape[0]} entries for {rows.shape[0]} rows"
                )
        chunk = max(1, min(auto_chunk_rows(dim), rows.size))

        total = np.zeros(dim, dtype=np.float64)
        h_buf = np.empty((chunk, dim), dtype=H.dtype)
        c_buf = np.empty((chunk, dim), dtype=H.dtype)
        out_buf = np.empty((chunk, dim), dtype=H.dtype)
        for start in range(0, rows.size, chunk):
            stop = min(start + chunk, rows.size)
            c = stop - start
            h = h_buf[:c]
            t = c_buf[:c]
            out = out_buf[:c]
            np.take(H, rows[start:stop], axis=0, out=h)
            for j, (cls_idx, w) in enumerate(zip(terms, coeffs)):
                np.take(C, cls_idx[start:stop], axis=0, out=t)
                np.subtract(h, t, out=t)
                np.abs(t, out=t)
                if j == 0:
                    np.multiply(t, H.dtype.type(w), out=out)
                else:
                    np.multiply(t, H.dtype.type(w), out=t)
                    np.add(out, t, out=out)
            self._normalize_chunk_inplace(out, normalization, eps)
            total += out.sum(axis=0, dtype=np.float64)
        return total

    @staticmethod
    def _normalize_chunk_inplace(out: np.ndarray, normalization: str,
                                 eps: float) -> None:
        """Row-normalise one streamed chunk in place (Algorithm 2's rule)."""
        if normalization == "none":
            return
        if normalization == "l2":
            norms = _row_norms(out, keepdims=True)
        elif normalization == "l1":
            norms = np.sum(np.abs(out), axis=1, keepdims=True)
        elif normalization == "minmax":
            lo = out.min(axis=1, keepdims=True)
            hi = out.max(axis=1, keepdims=True)
            span = hi - lo
            np.subtract(out, lo, out=out)
            np.divide(out, np.where(span > eps, span, 1.0), out=out)
            return
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
        np.divide(out, np.where(norms > eps, norms, 1.0), out=out)
