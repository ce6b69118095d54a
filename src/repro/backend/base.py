"""The ``ArrayBackend`` protocol — the library's pluggable compute seam.

The paper frames DistHD training and inference as "highly parallel
matrix-wise" operations; everything the hot paths need from an array library
is collected here as a small abstract interface: matmul, cosine similarity,
norms, RNG draws, rolls, top-k/argpartition, dtype casts, scatter-adds and
conversion back to NumPy.  :mod:`repro.backend.numpy_backend` is the one
shipped implementation; ``backend=`` also takes a caller's own instance.

Two conventions let a custom instance stand in for the NumPy backend:

- **RNG draws go through NumPy.**  Every stochastic draw takes a
  :class:`numpy.random.Generator` and materialises the values with NumPy
  before converting to the backend's native array type, so a model built at
  the same seed holds bit-identical parameters under any backend.
- **Scores leave as NumPy.**  Heavy ``(n, D)``-shaped math stays native to
  the backend; small ``(n, k)`` similarity/score matrices are converted to
  float64 NumPy at the query boundary so control flow (argmax, partitions,
  metrics) is backend-agnostic.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Tuple

import numpy as np

#: dtype aliases accepted anywhere a ``dtype`` is configured.
_DTYPE_ALIASES = {
    "float32": np.float32,
    "float64": np.float64,
    "f32": np.float32,
    "f64": np.float64,
    "single": np.float32,
    "double": np.float64,
}


def resolve_dtype(dtype: Any) -> np.dtype:
    """Normalise a dtype spec (``"float32"``, ``np.float64``, ...) to a
    NumPy dtype.  ``None`` resolves to float64 (the legacy default)."""
    if dtype is None:
        return np.dtype(np.float64)
    if isinstance(dtype, str):
        key = dtype.strip().lower()
        if key in _DTYPE_ALIASES:
            return np.dtype(_DTYPE_ALIASES[key])
        raise ValueError(
            f"unknown dtype {dtype!r}; expected one of "
            f"{sorted(set(_DTYPE_ALIASES))}"
        )
    return np.dtype(dtype)


#: Element budget per streamed chunk (rows × dim) for the fused kernels —
#: sized so a float32 chunk buffer is ~1 MiB and the ~3 live buffers of the
#: fused Algorithm-2 kernel stay L2/L3-resident on commodity CPUs.
_CHUNK_ELEMENTS = 1 << 18


def auto_chunk_rows(dim: int, elements: int = _CHUNK_ELEMENTS) -> int:
    """Rows per chunk targeting ``elements`` array entries for width ``dim``."""
    return max(16, elements // max(int(dim), 1))


#: Encoded cells (rows × width) per row window of the training refresh
#: and of artifact inference: 2 MiB at float32.  Each window pays a GEMM
#: call (and, in the refresh, a ``(k, width)`` re-bundle scatter), so much
#: smaller windows cost time (2x as many read ~10% slower per refresh at
#: the perfbench train point).
_REFRESH_ELEMENTS = 1 << 19
#: At float32 a GEMM of ``w`` rows against ``m`` output columns rounds
#: every entry as the full-batch GEMM does once ``w ≥ 2`` and
#: ``w·m ≥ 2048`` (OpenBLAS 0.3.31, q = 54 and 561, pinned or threaded);
#: smaller windows run a different kernel.
_EXACT_GEMM_ELEMENTS = 2048


def refresh_windows(n: int, width: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` row windows over ``n`` rows encoded ``width``
    columns wide.

    The one window rule of the library: the training refresh walks it
    over the regenerated columns, and artifact inference
    (:meth:`repro.deploy.StagedModel.staged_scores`) over the full
    encoding.  Windows hold ``_REFRESH_ELEMENTS`` entries, and at least
    as many as the full batch's GEMM needs to round alike; a shorter
    tail joins the window before it.
    """
    width = max(int(width), 1)
    floor = max(2, -(-_EXACT_GEMM_ELEMENTS // width))
    rows = max(floor, _REFRESH_ELEMENTS // width)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] < floor:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


class ArrayBackend(abc.ABC):
    """Abstract array-compute backend.

    Subclasses provide the primitive array operations the HDC hot paths are
    written against.  Arrays handled by a backend are *native* arrays
    (``np.ndarray`` for NumPy); use :meth:`asarray` / :meth:`to_numpy` to
    cross the boundary.
    """

    #: Backend name (``"numpy"``); set by subclasses.
    name: str = "abstract"

    # ------------------------------------------------------------ conversion

    @abc.abstractmethod
    def asarray(self, x: Any, dtype: Any = None) -> Any:
        """Convert ``x`` to a native array, optionally casting to ``dtype``."""

    @abc.abstractmethod
    def to_numpy(self, x: Any) -> np.ndarray:
        """Convert a native array to ``np.ndarray`` (zero-copy when possible)."""

    @abc.abstractmethod
    def is_native(self, x: Any) -> bool:
        """Whether ``x`` is already this backend's native array type."""

    def cast(self, x: Any, dtype: Any) -> Any:
        """Cast a native array to ``dtype`` (no-op when already there)."""
        return self.asarray(x, dtype=dtype)

    # ---------------------------------------------------------- construction

    @abc.abstractmethod
    def zeros(self, shape: Any, dtype: Any = np.float64) -> Any:
        """A zero-filled native array."""

    @abc.abstractmethod
    def empty(self, shape: Any, dtype: Any = np.float64) -> Any:
        """An *uninitialised* native array — for outputs every element of
        which the caller overwrites (block-stacked encoder outputs), where
        :meth:`zeros`'s fill is pure waste."""

    @abc.abstractmethod
    def copy(self, x: Any) -> Any:
        """A defensive copy of a native array."""

    # ------------------------------------------------------------------- rng

    def draw_normal(
        self,
        rng: np.random.Generator,
        mean: float,
        std: float,
        shape: Any,
        dtype: Any,
    ) -> Any:
        """Gaussian draw, materialised via NumPy for cross-backend parity."""
        return self.asarray(rng.normal(mean, std, size=shape), dtype=dtype)

    def draw_uniform(
        self,
        rng: np.random.Generator,
        low: float,
        high: float,
        shape: Any,
        dtype: Any,
    ) -> Any:
        """Uniform draw, materialised via NumPy for cross-backend parity."""
        return self.asarray(rng.uniform(low, high, size=shape), dtype=dtype)

    # ------------------------------------------------------------ arithmetic

    @abc.abstractmethod
    def matmul(self, a: Any, b: Any) -> Any:
        """Matrix product ``a @ b``."""

    @abc.abstractmethod
    def norm(
        self,
        x: Any,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> Any:
        """L2 norm along ``axis``."""

    @abc.abstractmethod
    def cos(self, x: Any) -> Any:
        """Element-wise cosine."""

    @abc.abstractmethod
    def sin(self, x: Any) -> Any:
        """Element-wise sine."""

    @abc.abstractmethod
    def tanh(self, x: Any) -> Any:
        """Element-wise hyperbolic tangent."""

    @abc.abstractmethod
    def where(self, cond: Any, a: Any, b: Any) -> Any:
        """Element-wise select."""

    @abc.abstractmethod
    def sum(
        self,
        x: Any,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> Any:
        """Sum along ``axis`` (integer inputs may promote to avoid overflow)."""

    @abc.abstractmethod
    def abs(self, x: Any) -> Any:
        """Element-wise absolute value."""

    @abc.abstractmethod
    def amin(
        self,
        x: Any,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> Any:
        """Minimum along ``axis``."""

    @abc.abstractmethod
    def amax(
        self,
        x: Any,
        axis: Optional[int] = None,
        keepdims: bool = False,
    ) -> Any:
        """Maximum along ``axis``."""

    @abc.abstractmethod
    def roll(self, x: Any, shift: int, axis: int = -1) -> Any:
        """Cyclic shift along ``axis`` (the HDC permute primitive)."""

    @abc.abstractmethod
    def einsum(self, subscripts: str, *operands: Any) -> Any:
        """Einstein summation over native arrays."""

    @abc.abstractmethod
    def cosine_similarity(
        self,
        queries: Any,
        memory: Any,
        eps: float = 1e-12,
        memory_norms: Any = None,
        query_norms: Any = None,
    ) -> Any:
        """``(n, k)`` cosine similarity with the zero-vector → 0 convention.

        ``memory_norms`` optionally supplies precomputed ``(k, 1)`` row norms
        of ``memory`` (native array), letting callers with a stable class
        bank — :class:`~repro.hdc.memory.AssociativeMemory` caches them per
        mutation version — skip the per-call ``O(kD)`` norm recompute.
        ``query_norms`` likewise supplies the ``(n,)`` row norms of
        ``queries``, which a training loop computes once per version of its
        cached encoding instead of an ``O(nD)`` recompute per call.
        """

    @abc.abstractmethod
    def transpose(self, x: Any) -> Any:
        """Matrix transpose (2-D)."""

    @abc.abstractmethod
    def ones_like(self, x: Any) -> Any:
        """Array of ones with ``x``'s shape and dtype."""

    @abc.abstractmethod
    def zeros_like(self, x: Any) -> Any:
        """Array of zeros with ``x``'s shape and dtype."""

    # -------------------------------------------------------------- indexing

    @abc.abstractmethod
    def take_rows(self, x: Any, idx: Any) -> Any:
        """``x[idx]`` for an integer index array (gather along axis 0)."""

    def slice_rows(self, x: Any, start: int, stop: int) -> Any:
        """``x[start:stop]`` — a contiguous row window, as a view when the
        engine supports views (NumPy does).  The chunked hot paths prefer
        this over :meth:`take_rows` with an ``arange``, which would copy."""
        return x[start:stop]

    @abc.abstractmethod
    def set_rows(self, x: Any, idx: Any, values: Any) -> None:
        """``x[idx] = values`` in place (rows)."""

    @abc.abstractmethod
    def take_columns(self, x: Any, cols: Any) -> Any:
        """``x[:, cols]`` for an integer index array."""

    @abc.abstractmethod
    def set_columns(self, x: Any, cols: Any, values: Any) -> None:
        """``x[:, cols] = values`` in place."""

    @abc.abstractmethod
    def zero_columns(self, x: Any, cols: Any) -> None:
        """``x[:, cols] = 0`` in place."""

    @abc.abstractmethod
    def scatter_add_rows(self, target: Any, idx: Any, values: Any) -> None:
        """``target[idx] += values`` with duplicate-index accumulation."""

    @abc.abstractmethod
    def scatter_add_cells(
        self,
        target: Any,
        rows: Any,
        cols: Any,
        values: Any,
    ) -> None:
        """``target[rows[:, None], cols[None, :]] += values`` accumulating."""

    @abc.abstractmethod
    def argpartition_desc(self, x: Any, k: int, axis: int = -1) -> Any:
        """Partition indices putting the ``k`` largest entries first
        (unordered within the partition)."""

    def topk_desc(self, scores: Any, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` indices and values per row, best first, as NumPy arrays.

        ``scores`` is ``(n, m)``; returns ``(indices, values)`` of shape
        ``(n, k)``.  Default implementation argpartitions then sorts only
        the ``k`` survivors, which beats a full argsort for small ``k``.
        """
        s = self.to_numpy(scores)
        part = np.asarray(self.argpartition_desc(s, k, axis=1))[:, :k]
        top = np.take_along_axis(s, part, axis=1)
        order = np.take_along_axis(
            part, np.argsort(-top, axis=1, kind="stable"), axis=1
        )
        return order, np.take_along_axis(s, order, axis=1)

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
        eps: float = 1e-12,
    ) -> np.ndarray:
        """Column sums of row-normalised signed ``|H − C|`` combinations.

        The Algorithm-2 scoring kernel.  For each selected sample ``i``
        (``rows[i]``) the *virtual* distance row is

            ``R_i = Σ_j coeffs[j] · |H[rows[i]] − C[class_terms[j][i]]|``

        Rows are normalised per ``normalization`` (``"l2"`` / ``"l1"`` /
        ``"minmax"`` / ``"none"``, matching the dense reference in
        :mod:`repro.core.regeneration`) and column-summed into a single
        ``(D,)`` float64 NumPy vector.  The kernel streams in cache-sized
        row chunks (:func:`auto_chunk_rows`), so peak extra memory is
        ``O(chunk · D)`` — the full ``(m, D)`` distance matrix is
        never materialised, and all arithmetic stays native to the backend
        (one host conversion for the final ``(D,)`` result).

        Parameters
        ----------
        H:
            ``(n, D)`` native encoded batch.
        rows:
            ``(m,)`` integer sample indices into ``H`` to score.
        C:
            ``(k, D)`` native (normalised) class bank, same dtype as ``H``.
        class_terms:
            Sequence of ``(m,)`` integer arrays — per-term class index for
            each selected sample.
        coeffs:
            Per-term signed weights (``α``, ``−β``, ``−θ``, ...).
        """
        if len(class_terms) != len(coeffs) or not class_terms:
            raise ValueError(
                f"class_terms and coeffs must be equal-length and non-empty, "
                f"got {len(class_terms)} terms and {len(coeffs)} coeffs"
            )
        rows = np.asarray(rows, dtype=np.int64)
        dim = int(H.shape[1])
        if rows.size == 0:
            return np.zeros(dim, dtype=np.float64)
        terms = [np.asarray(t, dtype=np.int64) for t in class_terms]
        for t in terms:
            if t.shape[0] != rows.shape[0]:
                raise ValueError(
                    f"class term has {t.shape[0]} entries for {rows.shape[0]} rows"
                )
        chunk = max(1, min(auto_chunk_rows(dim), rows.size))
        total = self.zeros((dim,), dtype=np.float64)
        for start in range(0, rows.size, chunk):
            stop = min(start + chunk, rows.size)
            h = self.take_rows(H, rows[start:stop])
            combined = None
            for t, w in zip(terms, coeffs):
                term = self.abs(h - self.take_rows(C, t[start:stop]))
                part = term * float(w)
                combined = part if combined is None else combined + part
            combined = self._normalize_rows_for_colsum(
                combined, normalization, eps
            )
            total = total + self.sum(
                self.cast(combined, np.float64), axis=0
            )
        return self.to_numpy(total).astype(np.float64, copy=False)

    def _normalize_rows_for_colsum(
        self,
        x: Any,
        normalization: str,
        eps: float,
    ) -> Any:
        """Row-normalise a native chunk per Algorithm 2's rule."""
        if normalization == "none":
            return x
        if normalization == "l2":
            norms = self.norm(x, axis=1, keepdims=True)
        elif normalization == "l1":
            norms = self.sum(self.abs(x), axis=1, keepdims=True)
        elif normalization == "minmax":
            lo = self.amin(x, axis=1, keepdims=True)
            hi = self.amax(x, axis=1, keepdims=True)
            span = hi - lo
            safe = self.where(span > eps, span, self.ones_like(span))
            return (x - lo) / safe
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
        safe = self.where(norms > eps, norms, self.ones_like(norms))
        return x / safe

    @abc.abstractmethod
    def fwht_rows(self, x: Any) -> Any:
        """Walsh–Hadamard-transform every row of a native 2-D array.

        Computes ``x @ H`` for the *unnormalised* Sylvester–Hadamard matrix
        ``H`` of order ``x.shape[1]`` (which must be a power of two) in
        ``O(m log m)`` per row — the kernel behind the structured
        (SORF/Fastfood) encoders of
        :mod:`repro.hdc.encoders.structured`.  Callers fold any ``1/√m``
        normalisation into their own scaling, keeping the transform
        integer-exact (see :mod:`repro.hdc.fwht`).

        **In-place contract:** when ``x`` is a native, writable,
        C-contiguous array the backend MAY transform it in place and return
        it — callers must pass a buffer they own and always use the return
        value.  Encoder chains (``H D₃ H D₂ H D₁ x``) rely on this to reuse
        one work buffer across the whole chain.
        """

    # ------------------------------------------------------- packed binary

    @abc.abstractmethod
    def packbits_rows(self, x: Any) -> np.ndarray:
        """Sign-binarise native rows (``x >= 0`` → bit 1) and bit-pack them.

        ``x`` is ``(n, D)`` (or ``(D,)``) native; returns ``(n, W)`` NumPy
        ``uint64`` words, ``W = ceil(D / 64)``, with zero pad bits per the
        contract in :mod:`repro.hdc.packed`.  Packed words always cross
        the API boundary as NumPy — like similarity scores, they are
        boundary values, so packed artifacts stay backend-neutral.

        The sign convention matches 1-bit quantization
        (:func:`repro.noise.quantization.quantize`): ``x >= 0`` → bit 1.
        """

    def hamming_scores_packed(
        self,
        q_words: Any,
        m_words: Any,
        dim: int,
    ) -> np.ndarray:
        """Similarity ``(dim − 2·hamming) / dim`` between packed rows.

        ``q_words`` ``(n, W)`` and ``m_words`` ``(k, W)`` are NumPy
        ``uint64`` packed words (the boundary representation produced by
        :meth:`packbits_rows`); returns ``(n, k)`` float64 NumPy scores in
        ``[-1, 1]`` via XOR + popcount — identical rows score 1.0 and the
        score is strictly decreasing in Hamming distance.

        This body runs the NumPy kernels of :mod:`repro.hdc.packed` (which
        select ``np.bitwise_count`` or the lookup-table fallback at import
        time); :class:`~repro.backend.numpy_backend.NumpyBackend` overrides
        it with a buffer-reusing kernel that must score bit-identically.
        """
        from repro.hdc import packed as _packed

        return _packed.hamming_scores_packed(
            np.asarray(q_words, dtype=np.uint64),
            np.asarray(m_words, dtype=np.uint64),
            int(dim),
        )

    # ------------------------------------------------------------------ misc

    def similarity_scores(
        self,
        queries: Any,
        memory: Any,
        metric: str = "cosine",
        memory_norms: Any = None,
        query_norms: Any = None,
    ) -> Any:
        """Backend-native similarity matrix, converted to float64 NumPy.

        The float64 is the *container* dtype: values are computed at the
        operands' native dtype, so float32 operands give float32-precision
        scores in a float64 array (see ``docs/performance.md``).  The norm
        arguments feed :meth:`cosine_similarity`; the dot metric ignores
        them.
        """
        if metric == "cosine":
            out = self.cosine_similarity(queries, memory,
                                         memory_norms=memory_norms,
                                         query_norms=query_norms)
        else:
            out = self.matmul(queries, self.transpose(memory))
        return self.to_numpy(out).astype(np.float64, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
