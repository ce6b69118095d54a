"""Core hypervector operations (paper §III-A).

All operations accept either a single hypervector ``(D,)`` or a batch
``(n, D)`` and are implemented against the pluggable
:class:`~repro.backend.base.ArrayBackend` protocol, mirroring the "highly
parallel matrix-wise" framing of the paper.  Everything runs on vectorised
NumPy by default; ``backend=`` takes a custom ``ArrayBackend`` instance.

Dtype policy: operations **preserve** the input dtype instead of silently
upcasting to float64 — bipolar int8 stays int8 under ``bind``/``permute``,
float32 encodings stay float32 end to end.  The only promotions are the
unavoidable ones: integer ``bundle`` follows NumPy's sum-promotion rules
(int8 sums promote so bundling cannot overflow) and norms/similarity ratios
of integer inputs are computed in floating point.
"""

from __future__ import annotations

import numpy as np

from typing import Any

from repro.backend import BackendLike, get_backend
from repro.utils.validation import check_matrix

_EPS = 1e-12


def _as_hv(hv: Any, b: Any, name: str = "hypervector") -> Any:
    """Coerce to a backend-native array without changing a floating dtype."""
    if b.is_native(hv):
        return hv
    return b.asarray(hv)


def bundle(*hypervectors: Any, backend: BackendLike = None) -> Any:
    """Bundle (element-wise add) hypervectors: the HDC memory operation.

    ``bundle(H1, H2)`` returns a hypervector similar to both inputs; in
    high-dimensional space ``cos(bundle(H1, H2), H1) >> 0`` while the
    similarity with an unrelated hypervector stays near zero.

    Accepts any mix of ``(D,)`` vectors and ``(n, D)`` batches; batches are
    first reduced along their sample axis.  The result keeps the (promoted)
    input dtype rather than forcing float64.
    """
    if not hypervectors:
        raise ValueError("bundle requires at least one hypervector")
    b = get_backend(backend)
    total = None
    dim = None
    for hv in hypervectors:
        arr = _as_hv(hv, b)
        if arr.ndim == 2:
            arr = b.sum(arr, axis=0)
        elif arr.ndim == 1:
            # Reduce through sum even for single vectors: integer inputs get
            # the same overflow-safe promotion as batches (int8 → int64),
            # and the result is always a fresh array, never an alias of the
            # caller's hypervector.
            arr = b.sum(arr.reshape(1, -1), axis=0)
        else:
            raise ValueError(f"hypervectors must be 1-D or 2-D, got ndim={arr.ndim}")
        if dim is None:
            dim = arr.shape[0]
        elif arr.shape[0] != dim:
            raise ValueError(
                f"dimension mismatch in bundle: {dim} vs {arr.shape[0]}"
            )
        total = arr if total is None else total + arr
    return total


def bind(h1: Any, h2: Any, backend: BackendLike = None) -> Any:
    """Bind (element-wise multiply) two hypervectors.

    Binding associates two hypervectors into one that is near-orthogonal to
    both.  For bipolar inputs it is an involution: ``bind(bind(a, b), a) == b``.
    Supports broadcasting between ``(D,)`` and ``(n, D)``; preserves the
    (promoted) input dtype.
    """
    b = get_backend(backend)
    a = _as_hv(h1, b)
    c = _as_hv(h2, b)
    if a.shape[-1] != c.shape[-1]:
        raise ValueError(
            f"dimension mismatch in bind: {a.shape[-1]} vs {c.shape[-1]}"
        )
    return a * c


def permute(hv: Any, shifts: int = 1, backend: BackendLike = None) -> Any:
    """Cyclically permute hypervector elements (the HDC sequence operation).

    Permutation produces a hypervector near-orthogonal to its input while
    preserving pairwise similarities, which makes it the standard encoding for
    positional/temporal order in n-gram encoders.  Dtype-preserving.
    """
    b = get_backend(backend)
    return b.roll(_as_hv(hv, b), shifts, axis=-1)


def normalize_rows(X: Any, backend: BackendLike = None) -> Any:
    """L2-normalise each row; zero rows are passed through unchanged.

    Floating inputs keep their dtype; integer inputs promote to floating
    point (a ratio cannot stay integral).
    """
    b = get_backend(backend)
    arr = _as_hv(X, b)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    norms = b.norm(arr, axis=1, keepdims=True)
    out = arr / b.where(norms > _EPS, norms, b.ones_like(norms))
    return out[0] if single else out


def _check_pair(
    queries: Any,
    memory: Any,
    b: Any,
    q_name: str,
    m_name: str,
) -> Any:
    Q = queries if b.is_native(queries) else _validated(queries, q_name)
    M = memory if b.is_native(memory) else _validated(memory, m_name)
    if Q.ndim == 1:
        Q = Q.reshape(1, -1)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if Q.ndim != 2 or M.ndim != 2:
        raise ValueError(
            f"{q_name} and {m_name} must be 1-D or 2-D, got ndim "
            f"{Q.ndim} and {M.ndim}"
        )
    if Q.shape[1] != M.shape[1]:
        raise ValueError(
            f"{q_name} and {m_name} disagree on dimensionality: "
            f"{Q.shape[1]} vs {M.shape[1]}"
        )
    return Q, M


def _validated(x: Any, name: str) -> np.ndarray:
    return check_matrix(x, name, dtype=None)


def dot_similarity(
    queries: Any,
    memory: Any,
    backend: BackendLike = None,
) -> Any:
    """Raw dot-product similarity between queries ``(n, D)`` and memory ``(k, D)``.

    Returns an ``(n, k)`` score matrix.  Per equation (1) of the paper this is
    proportional to cosine similarity once the memory rows are normalised,
    because the query norm is constant across classes.
    """
    b = get_backend(backend)
    Q, M = _check_pair(queries, memory, b, "queries", "memory")
    return b.matmul(Q, b.transpose(M))


def cosine_similarity(
    queries: Any,
    memory: Any,
    backend: BackendLike = None,
) -> Any:
    """Cosine similarity δ(H, C) between queries ``(n, D)`` and memory ``(k, D)``.

    Zero vectors on either side yield similarity 0 rather than NaN, matching
    the convention that an empty class hypervector matches nothing.
    """
    b = get_backend(backend)
    Q, M = _check_pair(queries, memory, b, "queries", "memory")
    return b.cosine_similarity(Q, M)


def hamming_distance(h1: Any, h2: Any, backend: BackendLike = None) -> np.ndarray:
    """Normalised Hamming distance between bipolar/binary hypervectors.

    For batches, broadcasts ``(n, D)`` against ``(D,)`` or pairs two equal
    batches element-wise.  The comparison runs on the selected backend
    (native tensors stay native end to end); per the library's score
    convention the normalised result returns as float64 NumPy, values in
    [0, 1].
    """
    b = get_backend(backend)
    a = _as_hv(h1, b)
    c = _as_hv(h2, b)
    if a.shape[-1] != c.shape[-1]:
        raise ValueError(
            f"dimension mismatch in hamming_distance: {a.shape[-1]} vs {c.shape[-1]}"
        )
    dim = int(a.shape[-1])
    mismatches = b.sum(b.cast(a != c, np.float64), axis=-1)
    return np.asarray(b.to_numpy(mismatches), dtype=np.float64) / dim


def hamming_similarity(
    queries: Any,
    memory: Any,
    backend: BackendLike = None,
) -> np.ndarray:
    """Fraction of matching elements between each query and each memory row.

    The bipolar simplification of cosine similarity the paper mentions:
    returns an ``(n, k)`` float64 matrix with entries
    ``1 - hamming_distance``, computed on the selected backend.
    """
    b = get_backend(backend)
    Q, M = _check_pair(queries, memory, b, "queries", "memory")
    dim = int(Q.shape[1])
    mismatch = Q[:, None, :] != M[None, :, :]
    counts = b.sum(b.cast(mismatch, np.float64), axis=2)
    return 1.0 - np.asarray(b.to_numpy(counts), dtype=np.float64) / dim


def pack_hypervectors(x: Any, backend: BackendLike = None) -> np.ndarray:
    """Sign-binarise and bit-pack hypervectors, 64 cells per ``uint64`` word.

    ``x`` is ``(n, D)`` or ``(D,)``; returns ``(n, W)`` NumPy ``uint64``
    words with ``W = ceil(D / 64)`` and zero pad bits (the padding
    contract of :mod:`repro.hdc.packed`).  Cells ``>= 0`` map to bit 1,
    matching 1-bit quantization.  The binarisation runs on the selected
    backend; packed words always return as NumPy (they are boundary
    values, like similarity scores).
    """
    b = get_backend(backend)
    return b.packbits_rows(_as_hv(x, b))


def unpack_hypervectors(words: Any, dim: int) -> np.ndarray:
    """Unpack ``(n, W)`` ``uint64`` words to ``(n, dim)`` uint8 ``{0, 1}``.

    Inverse of :func:`pack_hypervectors` up to binarisation (the sign
    magnitude is gone); pad bits are sliced off.
    """
    from repro.hdc.packed import unpack_rows

    return unpack_rows(np.asarray(words, dtype=np.uint64), int(dim))


def packed_hamming_similarity(
    q_words: Any,
    m_words: Any,
    dim: int,
    backend: BackendLike = None,
) -> np.ndarray:
    """Similarity ``(dim − 2·hamming) / dim`` between packed hypervectors.

    The packed-domain scoring kernel: ``q_words`` ``(n, W)`` and
    ``m_words`` ``(k, W)`` are ``uint64`` words from
    :func:`pack_hypervectors`; returns ``(n, k)`` float64 scores in
    ``[-1, 1]`` via XOR + popcount on the selected backend.  Identical
    rows score 1.0 and the score is strictly decreasing in Hamming
    distance, so rankings agree with :func:`hamming_similarity` on the
    unpacked codes.
    """
    b = get_backend(backend)
    return b.hamming_scores_packed(q_words, m_words, int(dim))
