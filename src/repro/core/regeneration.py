"""Algorithm 2 — identifying and regenerating undesired dimensions.

Given the outcome partition of one training iteration, build two distance
matrices:

- ``M`` (one row per *partially correct* sample):
      ``M_i = α·|H − C_true| − β·|H − C_pred|``
  large entries mark dimensions far from the true label and close to the
  wrongly-preferred label — the dimensions that mislead this sample;

- ``N`` (one row per *incorrect* sample), default "prose" rule:
      ``N_i = α·|H − C_true| − β·|H − C_top1| − θ·|H − C_top2|``
  with the printed Algorithm-2-box alternative
      ``N_i = α·|H − C_top1| + β·|H − C_top2| − θ·|H − C_true|``
  selectable for ablation.  The prose rule is the default because it
  gives ``N`` the sign convention of ``M`` (large entries: far from the
  true class, close to the wrong ones); the box as printed rewards
  dimensions close to the true class instead.
  ``benchmarks/test_ablations.py`` compares the two.

Both matrices are normalised row-wise, column-summed into 1×D score vectors
``M'`` and ``N'``, and the *intersection* of their top-R%·D highest-scoring
dimensions is returned as the undesired set — intersecting avoids
over-eliminating dimensions that only one evidence source dislikes.

Training scores ``M'``/``N'`` with :func:`fused_dimension_scores`, which
streams the computation through the backend's fused ``fused_absdiff_colsum``
kernel in cache-sized row chunks: the ``(n, D)`` distance matrices are never
materialised and the arithmetic stays native to the backend.
:func:`distance_matrices` + :func:`select_undesired_dimensions` are the
dense NumPy reference the fused path is property-tested against
(``tests/test_property_fused.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.backend.base import refresh_windows
from repro.core.config import DistHDConfig
from repro.core.topk import OutcomePartition
from repro.hdc.encoders.base import RegenerableEncoder
from repro.hdc.memory import AssociativeMemory

_EPS = 1e-12


def _normalize_matrix(matrix: np.ndarray, how: str) -> np.ndarray:
    """Row-normalise a distance matrix so each sample votes with equal weight."""
    if matrix.size == 0 or how == "none":
        return matrix
    if how == "l2":
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        return matrix / np.where(norms > _EPS, norms, 1.0)
    if how == "l1":
        norms = np.sum(np.abs(matrix), axis=1, keepdims=True)
        return matrix / np.where(norms > _EPS, norms, 1.0)
    if how == "minmax":
        lo = matrix.min(axis=1, keepdims=True)
        hi = matrix.max(axis=1, keepdims=True)
        span = np.where(hi - lo > _EPS, hi - lo, 1.0)
        return (matrix - lo) / span
    raise ValueError(f"unknown normalization {how!r}")


def distance_matrices(
    encoded: np.ndarray,
    labels: np.ndarray,
    partition: OutcomePartition,
    memory: AssociativeMemory,
    *,
    alpha: float = 1.0,
    beta: float = 1.0,
    theta: float = 0.25,
    incorrect_rule: str = "prose",
) -> Tuple[np.ndarray, np.ndarray]:
    """Build distance matrices ``M`` (partial) and ``N`` (incorrect).

    Returns ``(M, N)`` with shapes ``(n_partial, D)`` and ``(n_incorrect, D)``;
    either may be empty (0 rows) when its outcome set is empty.

    Per the workflow's Normalization step (Fig. 3, box L) the class
    hypervectors enter the distances in normalised form (``N_l`` of equation
    (1)): class vectors are sums over many samples, so raw ``|H − C|`` would
    be dominated by the class magnitudes instead of the per-dimension
    disagreement the selection needs.  The encoded samples ``H`` stay raw:
    their entries are already bounded by the cos·sin encoder.
    """
    # Scoring runs at the encoding's own dtype (float32 on the hot path,
    # float64 when callers pass float64) — the selection only needs the
    # *ranking* of column sums, which is stable at single precision.
    H = memory.backend.to_numpy(encoded)
    labels = np.asarray(labels, dtype=np.int64)
    C = memory.normalized()
    if C.dtype != H.dtype:
        C = C.astype(H.dtype)

    # Partially correct: top1 is wrong, top2 is the true label.
    p = partition.partial
    if p.size:
        h = H[p]
        dist_true = np.abs(h - C[labels[p]])       # m  = |H - C_true(=top2)|
        dist_pred = np.abs(h - C[partition.top1[p]])  # m1 = |H - C_top1|
        M = alpha * dist_true - beta * dist_pred
    else:
        M = np.empty((0, H.shape[1]), dtype=H.dtype)

    # Incorrect: true label outside the top 2.
    q = partition.incorrect
    if q.size:
        h = H[q]
        dist_true = np.abs(h - C[labels[q]])
        dist_top1 = np.abs(h - C[partition.top1[q]])
        dist_top2 = np.abs(h - C[partition.top2[q]])
        if incorrect_rule == "prose":
            N = alpha * dist_true - beta * dist_top1 - theta * dist_top2
        elif incorrect_rule == "algorithm-box":
            N = alpha * dist_top1 + beta * dist_top2 - theta * dist_true
        else:
            raise ValueError(f"unknown incorrect_rule {incorrect_rule!r}")
    else:
        N = np.empty((0, H.shape[1]), dtype=H.dtype)
    return M, N


def _top_fraction(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Indices of the ``fraction`` highest-scoring dimensions (ties by index).

    Selection runs as an O(D) argpartition instead of a full O(D log D)
    argsort; tie-breaking is kept identical to the old stable descending
    argsort (among dimensions tied at the selection threshold, the lowest
    indices win) by filling the remaining slots from an index-ascending
    scan of the threshold-valued dimensions.
    """
    dim = scores.shape[0]
    count = int(round(fraction * dim))
    count = max(0, min(count, dim))
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count >= dim:
        return np.arange(dim, dtype=np.int64)
    part = np.argpartition(-scores, count - 1)[:count]
    threshold = scores[part].min()  # the count-th largest value
    above = np.flatnonzero(scores > threshold)
    tied = np.flatnonzero(scores == threshold)[: count - above.size]
    return np.sort(np.concatenate([above, tied])).astype(np.int64, copy=False)


def _algorithm2_terms(
    labels: np.ndarray,
    partition: OutcomePartition,
    *,
    alpha: float,
    beta: float,
    theta: float,
    incorrect_rule: str,
):
    """The (class-index arrays, signed coefficients) of both distance rules.

    Returns ``(m_terms, m_coeffs, n_terms, n_coeffs)`` — the per-sample
    class gathers and weights whose ``Σ w_j·|H − C[idx_j]]|`` rows are
    exactly the ``M`` and ``N`` matrices of :func:`distance_matrices`.
    """
    p, q = partition.partial, partition.incorrect
    m_terms = (labels[p], partition.top1[p])
    m_coeffs = (alpha, -beta)
    if incorrect_rule == "prose":
        n_terms = (labels[q], partition.top1[q], partition.top2[q])
        n_coeffs = (alpha, -beta, -theta)
    elif incorrect_rule == "algorithm-box":
        n_terms = (partition.top1[q], partition.top2[q], labels[q])
        n_coeffs = (alpha, beta, -theta)
    else:
        raise ValueError(f"unknown incorrect_rule {incorrect_rule!r}")
    return m_terms, m_coeffs, n_terms, n_coeffs


def fused_dimension_scores(
    encoded,
    labels: np.ndarray,
    partition: OutcomePartition,
    memory: AssociativeMemory,
    *,
    alpha: float = 1.0,
    beta: float = 1.0,
    theta: float = 0.25,
    incorrect_rule: str = "prose",
    normalization: str = "l2",
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Algorithm 2's column-sum score vectors ``M'`` and ``N'``, fused.

    Equivalent (to floating-point tolerance) to building the dense matrices
    with :func:`distance_matrices`, row-normalising and column-summing —
    but streamed through the backend's ``fused_absdiff_colsum`` kernel in
    cache-sized chunks, so peak extra memory is ``O(chunk · D)`` instead of
    ``O(n · D)``.

    Returns ``(m_scores, n_scores)`` as float64 ``(D,)`` arrays; an outcome
    set with no samples yields ``None`` for its score vector.
    """
    b = memory.backend
    H = encoded if b.is_native(encoded) else b.asarray(encoded)
    C = memory.normalized_native()
    if hasattr(H, "dtype") and hasattr(C, "dtype") and C.dtype != H.dtype:
        C = b.cast(C, H.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    m_terms, m_coeffs, n_terms, n_coeffs = _algorithm2_terms(
        labels, partition,
        alpha=alpha, beta=beta, theta=theta, incorrect_rule=incorrect_rule,
    )
    m_scores = (
        b.fused_absdiff_colsum(
            H, partition.partial, C, m_terms, m_coeffs,
            normalization=normalization,
        )
        if partition.partial.size
        else None
    )
    n_scores = (
        b.fused_absdiff_colsum(
            H, partition.incorrect, C, n_terms, n_coeffs,
            normalization=normalization,
        )
        if partition.incorrect.size
        else None
    )
    return m_scores, n_scores


def undesired_from_scores(
    m_scores: Optional[np.ndarray],
    n_scores: Optional[np.ndarray],
    *,
    regen_rate: float,
    selection: str = "intersection",
) -> np.ndarray:
    """Combine ``M'``/``N'`` score vectors into the dimensions to regenerate.

    Implements Algorithm 2 lines 14–15 given the column-sum scores (from
    either the fused or the dense path).  ``None`` marks an outcome set with
    no samples: its candidate set is empty, so ``"intersection"`` yields no
    regeneration (the safe no-op) while ``"union"`` uses the other set alone.
    """
    if not 0.0 <= regen_rate <= 1.0:
        raise ValueError(f"regen_rate must be in [0, 1], got {regen_rate}")
    m_top = (
        _top_fraction(m_scores, regen_rate)
        if m_scores is not None
        else np.empty(0, np.int64)
    )
    n_top = (
        _top_fraction(n_scores, regen_rate)
        if n_scores is not None
        else np.empty(0, np.int64)
    )
    if selection == "intersection":
        return np.intersect1d(m_top, n_top)
    if selection == "union":
        return np.union1d(m_top, n_top)
    if selection == "m-only":
        return m_top
    if selection == "n-only":
        return n_top
    raise ValueError(f"unknown selection {selection!r}")


def select_undesired_dimensions(
    M: np.ndarray,
    N: np.ndarray,
    *,
    regen_rate: float,
    dim: int,
    normalization: str = "l2",
    selection: str = "intersection",
) -> np.ndarray:
    """Combine dense distance matrices into the set of dimensions to regenerate.

    Implements Algorithm 2 lines 13–15: normalise, column-sum to ``M'`` and
    ``N'``, take the top ``R%·D`` of each, combine per ``selection``.  This
    is the dense reference; training uses :func:`fused_dimension_scores` +
    :func:`undesired_from_scores`.
    """
    if not 0.0 <= regen_rate <= 1.0:
        raise ValueError(f"regen_rate must be in [0, 1], got {regen_rate}")
    Mn = _normalize_matrix(np.asarray(M), normalization)
    Nn = _normalize_matrix(np.asarray(N), normalization)
    # Column sums accumulate at float64 so sample count never erodes the
    # ranking, whatever dtype the distance matrices carry.
    m_scores = Mn.sum(axis=0, dtype=np.float64) if Mn.size else None
    n_scores = Nn.sum(axis=0, dtype=np.float64) if Nn.size else None
    return undesired_from_scores(
        m_scores, n_scores, regen_rate=regen_rate, selection=selection,
    )


@dataclass
class RegenerationReport:
    """What one regeneration step did (for history/diagnostics).

    Attributes
    ----------
    dims:
        Regenerated dimension indices.
    n_partial, n_incorrect:
        Sizes of the two evidence sets this iteration.
    m_candidates, n_candidates:
        Sizes of the per-matrix top-R% candidate sets before combining.
    """

    dims: np.ndarray
    n_partial: int
    n_incorrect: int
    m_candidates: int
    n_candidates: int

    @property
    def n_regenerated(self) -> int:
        return int(self.dims.size)


def regenerate_step(
    encoded: np.ndarray,
    labels: np.ndarray,
    partition: OutcomePartition,
    memory: AssociativeMemory,
    encoder: RegenerableEncoder,
    config: DistHDConfig,
) -> RegenerationReport:
    """Run a full Algorithm-2 step: score, select, drop and regenerate.

    Scoring runs through the fused chunked kernel
    (:func:`fused_dimension_scores`).  The encoder's base vectors for the
    undesired dimensions are redrawn and the class-memory entries at those
    dimensions reset to zero; callers must refresh any cached encodings for
    the affected columns.
    """
    m_scores, n_scores = fused_dimension_scores(
        encoded,
        labels,
        partition,
        memory,
        alpha=config.alpha,
        beta=config.beta,
        theta=config.theta,
        incorrect_rule=config.incorrect_rule,
        normalization=config.normalization,
    )
    dims = undesired_from_scores(
        m_scores,
        n_scores,
        regen_rate=config.regen_rate,
        selection=config.selection,
    )
    count = int(round(config.regen_rate * memory.dim))
    m_count = count if m_scores is not None else 0
    n_count = count if n_scores is not None else 0
    if dims.size:
        encoder.regenerate(dims)
        memory.reset_dimensions(dims)
    return RegenerationReport(
        dims=dims,
        n_partial=int(partition.partial.size),
        n_incorrect=int(partition.incorrect.size),
        m_candidates=m_count,
        n_candidates=n_count,
    )


def refresh_columns(
    encoder: RegenerableEncoder,
    X,
    dims: np.ndarray,
    encoded,
    norms,
    *,
    memory: Optional[AssociativeMemory] = None,
    labels: Optional[np.ndarray] = None,
) -> None:
    """Refresh a cached encoding after ``encoder`` regenerated ``dims``.

    Per row window of :func:`~repro.backend.base.refresh_windows`: encode
    the regenerated dims, scatter them into that window of ``encoded``,
    recompute its row ``norms`` right after, and, when ``memory`` is
    given, re-bundle the window's fresh columns into its ``labels``' class
    rows so the regenerated dimensions start trained instead of at zero.
    No ``(n, len(dims))`` block is built.

    Against a full-batch ``encode_dims`` / ``set_columns`` / row-norm
    refresh of a row-major ``encoded`` (every training encoding is one):
    at float32 ``encoded`` and ``norms`` end byte-identical on the
    OpenBLAS build that docs/performance.md names; at float64
    OpenBLAS rounds some cells of a window's last rows with an edge kernel
    the full batch does not use there, so they agree to float rounding
    (docs/performance.md, "Training working set").  The re-bundled class
    memory differs from a full-batch ``bundle_columns`` by summation
    order only.
    """
    b = encoder.backend
    dims = np.asarray(dims)
    for start, stop in refresh_windows(int(X.shape[0]), dims.size):
        fresh = encoder.encode_dims(b.slice_rows(X, start, stop), dims)
        window = b.slice_rows(encoded, start, stop)
        b.set_columns(window, dims, fresh)
        norms[start:stop] = b.norm(window, axis=1)
        if memory is not None:
            memory.bundle_columns(labels[start:stop], dims, fresh)
