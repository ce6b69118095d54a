"""Associative (class-hypervector) memory.

Every HDC learner in the library stores one hypervector per class in an
:class:`AssociativeMemory`.  The memory supports the bundling-style updates of
single-pass training, the similarity-weighted updates of adaptive learning
(including Algorithm 1's grouped update as one GEMM), querying (similarity
scores, top-k labels) and the dimension-reset operation dimension
regeneration relies on.

The class memory lives on a pluggable
:class:`~repro.backend.base.ArrayBackend` at a configurable storage dtype
(float32 for the hot paths, float64 by default for backward compatibility).

**Score dtype contract.**  Similarity scores leave as float64 NumPy
*containers* so downstream control flow (argmax, partitions, metrics) is
backend-agnostic — but the values inside are computed at the memory's
storage dtype.  A float32 memory yields float32-precision scores in a
float64 array; only ``dtype="float64"`` memories give genuinely
double-precision scores.  (An earlier revision claimed scores "always leave
as float64", which the float32 hot path made misleading; the contract is
container-float64, compute-at-storage-dtype, and is pinned by
``tests/test_hdc_memory.py::TestScoreDtypeContract``.)

**Norm caching.**  Class norms and the row-normalised class bank are
cached per *mutation version*: every mutator (``accumulate``,
``update_misclassified``, ``add_to_class``, ``bundle_columns``,
``reset_dimensions``, ``set_vectors``, ``reset``, and assignment to the
``vectors`` property) bumps an internal version counter that stamps and
invalidates the caches, so repeated queries against an unchanged memory —
the adaptive pass, ``partition_outcomes``, ``predict`` and the fused
Algorithm-2 scoring inside one training iteration — recompute nothing.
Code that mutates the underlying array *in place* without going through a
mutator must call :meth:`AssociativeMemory.invalidate_caches`.

The query side follows the same convention, owned by the caller: a
training loop that scores one cached encoding many times computes its
``(n,)`` row norms once per *encoding version* (``backend.norm(encoded,
axis=1)`` at the memory's dtype) and passes them as ``query_norms`` to
:meth:`~AssociativeMemory.similarities`, :meth:`~AssociativeMemory.predict`
and :meth:`~AssociativeMemory.topk` (and to the Algorithm-1 pass and the
top-2 partition).  Anything that rewrites the encoding, such as a
regeneration's ``set_columns``, starts a new version, and the caller
recomputes the norms.  The scores are bit-identical to a call without
them, and a length that does not match the queries raises
``ValueError``.

**Locking contract (concurrent use).**  The memory takes no locks; the
guarantees under one writer (e.g. an online-adaptation ``partial_fit``)
racing any number of reader threads (``predict`` / ``similarities``) are:

- *no stale cache survives a mutation* — cache entries are stamped with
  the version read **before** their value was computed, so a value whose
  computation overlapped a mutation is stamped with the pre-mutation
  version and the next query at the new version recomputes (pinned by
  ``tests/test_serve_concurrency.py``);
- *individual in-progress reads may tear* — a reader that overlaps a
  mutator's in-place array update can observe a mix of pre- and
  post-update values for that one call.  Callers that need coherent
  per-call results under concurrent training must serve an immutable
  snapshot and swap it atomically, which is exactly what
  :mod:`repro.serve` does (see ``docs/serving.md``).
- more than one concurrent *writer* is not supported.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.backend import BackendLike, get_backend, resolve_dtype
from repro.utils.validation import check_matrix


def check_query_norms(query_norms: Any, n: int) -> None:
    """Reject precomputed query norms whose length is not ``n``."""
    if query_norms is not None and int(query_norms.shape[0]) != n:
        raise ValueError(
            f"query_norms has {int(query_norms.shape[0])} entries for "
            f"{n} queries"
        )


def as_numpy_vectors(memory: Any) -> np.ndarray:
    """The class bank of any memory-like object as a NumPy array.

    Duck-typed so the deploy/noise layers accept third-party classifiers
    whose ``memory_`` exposes plain ``vectors`` without the backend API.
    """
    if hasattr(memory, "numpy_vectors"):
        return memory.numpy_vectors()
    return np.asarray(memory.vectors)


class AssociativeMemory:
    """A ``(k, D)`` bank of class hypervectors with similarity queries.

    Parameters
    ----------
    n_classes:
        Number of class hypervectors ``k``.
    dim:
        Hypervector dimensionality ``D``.
    metric:
        ``"cosine"`` (default, the paper's δ) or ``"dot"``.
    dtype:
        Storage/compute dtype of the class bank (``"float32"`` /
        ``"float64"`` or a NumPy dtype).  Defaults to float64.
    backend:
        Array backend name or instance (default: NumPy).
    """

    def __init__(
        self,
        n_classes: int,
        dim: int,
        metric: str = "cosine",
        *,
        dtype: Any = None,
        backend: BackendLike = None,
    ) -> None:
        if n_classes <= 0:
            raise ValueError(f"n_classes must be positive, got {n_classes}")
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if metric not in ("cosine", "dot"):
            raise ValueError(f"metric must be 'cosine' or 'dot', got {metric!r}")
        self.n_classes = int(n_classes)
        self.dim = int(dim)
        self.metric = metric
        self.backend = get_backend(backend)
        self.dtype = resolve_dtype(dtype)
        self._version = 0
        self._cache = {}
        self._vectors = self.backend.zeros(
            (self.n_classes, self.dim), dtype=self.dtype
        )

    # ---------------------------------------------------------------- caching

    @property
    def vectors(self) -> Any:
        """The native ``(k, D)`` class bank.

        Assigning to this property invalidates the norm caches; in-place
        mutation of the returned array does not (use the mutator methods, or
        call :meth:`invalidate_caches` afterwards).
        """
        return self._vectors

    @vectors.setter
    def vectors(self, value: Any) -> None:
        self._vectors = value
        self.invalidate_caches()

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every mutator, stamps the caches."""
        return self._version

    def invalidate_caches(self) -> None:
        """Mark cached norms stale (called by every mutator)."""
        self._version += 1

    def _cached(self, key: str, compute: Any) -> Any:
        """``compute()`` memoised under ``key`` for the current version.

        The version is read *before* ``compute()`` runs and that stamp —
        not the post-compute one — is stored.  Under concurrent use
        (serving reads racing an online-adaptation writer) a mutator can
        bump the version mid-compute; stamping afterwards would file a
        value derived from pre-mutation state under the post-mutation
        version, and every later query at that version would serve the
        stale entry.  With the pre-read stamp such an entry is already
        out of date when stored, so the next query recomputes.  (The
        value returned from *this* call may still reflect a torn read —
        see the locking contract in the module docstring.)
        """
        hit = self._cache.get(key)
        if hit is not None and hit[0] == self._version:
            return hit[1]
        version = self._version
        value = compute()
        self._cache[key] = (version, value)
        return value

    # ------------------------------------------------------------------ state

    def copy(self) -> "AssociativeMemory":
        """A deep copy (used by convergence tracking and noise injection)."""
        clone = AssociativeMemory(
            self.n_classes, self.dim, self.metric,
            dtype=self.dtype, backend=self.backend,
        )
        clone.vectors = self.backend.copy(self._vectors)
        return clone

    def reset(self) -> None:
        """Zero out every class hypervector."""
        self._vectors[:] = 0.0
        self.invalidate_caches()

    def set_vectors(self, vectors: Any) -> None:
        """Replace the class bank, casting to this memory's backend/dtype."""
        vectors = self.backend.asarray(vectors, dtype=self.dtype)
        if tuple(vectors.shape) != (self.n_classes, self.dim):
            raise ValueError(
                f"vectors must have shape {(self.n_classes, self.dim)}, "
                f"got {tuple(vectors.shape)}"
            )
        self.vectors = vectors

    def numpy_vectors(self) -> np.ndarray:
        """The class bank as a NumPy array (zero-copy on the NumPy backend)."""
        return self.backend.to_numpy(self.vectors)

    def reset_dimensions(self, dims: np.ndarray) -> None:
        """Zero the given dimensions across all classes.

        This is the class-memory half of dimension regeneration: once the
        encoder redraws a base vector, the stale class contributions along
        that dimension no longer correspond to anything and are cleared so
        subsequent training re-learns them.
        """
        dims = np.asarray(dims, dtype=np.int64)
        if dims.size == 0:
            return
        if dims.min() < 0 or dims.max() >= self.dim:
            raise ValueError(
                f"dimension indices must lie in [0, {self.dim}), got range "
                f"[{dims.min()}, {dims.max()}]"
            )
        self.backend.zero_columns(self._vectors, dims)
        self.invalidate_caches()

    # ---------------------------------------------------------------- updates

    def as_encoded(self, encoded: Any, name: str = "encoded") -> Any:
        """Validate an encoded batch without forcing a dtype or a copy.

        Shape-checks only: finiteness is enforced once at the encoder
        boundary (``Encoder.encode``), not on every memory call — the
        training loop queries the same cached encoding dozens of times and
        an O(nD) ``isfinite`` scan per call is exactly the overhead the
        backend refactor removed.
        """
        b = self.backend
        H = encoded if b.is_native(encoded) else check_matrix(
            encoded, name, dtype=None, ensure_finite=False
        )
        if H.ndim == 1:
            H = H.reshape(1, -1)
        if H.shape[1] != self.dim:
            raise ValueError(
                f"{name} dimensionality {H.shape[1]} != memory dim {self.dim}"
            )
        return H

    def accumulate(self, encoded: Any, labels: Any) -> None:
        """Single-pass bundling: add each encoded sample into its class row."""
        H = self.as_encoded(encoded)
        labels = np.asarray(labels, dtype=np.int64)
        if H.shape[0] != labels.shape[0]:
            raise ValueError(
                f"encoded and labels disagree on sample count: "
                f"{H.shape[0]} vs {labels.shape[0]}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        self.backend.scatter_add_rows(self._vectors, labels, H)
        self.invalidate_caches()

    def add_to_class(self, class_index: int, delta: Any) -> None:
        """Add ``delta`` to one class hypervector (adaptive-learning update)."""
        if not 0 <= class_index < self.n_classes:
            raise ValueError(
                f"class_index must lie in [0, {self.n_classes}), got {class_index}"
            )
        self._vectors[class_index] += self.backend.asarray(delta, dtype=self.dtype)
        self.invalidate_caches()

    def update_misclassified(
        self,
        encoded_wrong: Any,
        predicted: np.ndarray,
        labels: np.ndarray,
        sim_pred: np.ndarray,
        sim_true: np.ndarray,
        lr: float,
    ) -> None:
        """Apply Algorithm 1's update for a batch of misclassified samples.

        All coefficients come from similarities computed *at batch start*
        (the paper's matrix-wise grouping), so the per-sample updates commute
        and fold into one ``(k, n_wrong)`` weight matrix ``W`` applied as a
        single GEMM, ``C += W @ H``, instead of a Python loop:

            C_pred ← C_pred − η · (1 − δ(H, C_pred)) · H
            C_true ← C_true + η · (1 − δ(H, C_true)) · H

        Column ``i`` of ``W`` holds sample ``i``'s two coefficients; a
        sample whose predicted label equals its true label gets their sum
        in one cell, as the two updates would add.
        """
        b = self.backend
        H = b.asarray(self.as_encoded(encoded_wrong), dtype=self.dtype)
        predicted = np.asarray(predicted, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        samples = np.arange(predicted.size, dtype=np.int64)
        weights = np.zeros((self.n_classes, predicted.size), dtype=self.dtype)
        weights[predicted, samples] = -lr * (1.0 - np.asarray(sim_pred))
        weights[labels, samples] += lr * (1.0 - np.asarray(sim_true))
        self._vectors += b.matmul(b.asarray(weights, dtype=self.dtype), H)
        self.invalidate_caches()

    def bundle_columns(
        self,
        labels: np.ndarray,
        dims: np.ndarray,
        values: Any,
    ) -> None:
        """Scatter-add ``values`` into ``vectors[labels][:, dims]``.

        The re-bundle half of dimension regeneration: freshly encoded columns
        are bundled back into each sample's class row so regenerated
        dimensions start trained instead of at zero.
        """
        self.backend.scatter_add_cells(self._vectors, labels, dims, values)
        self.invalidate_caches()

    # ---------------------------------------------------------------- queries

    def class_norms(self) -> Any:
        """Native ``(k, 1)`` L2 norms of the class rows, cached per version.

        Feeds the cosine path of :meth:`similarities` so repeated queries
        against an unchanged memory skip the per-call ``O(kD)`` recompute.
        """
        return self._cached(
            "norms",
            lambda: self.backend.norm(self._vectors, axis=1, keepdims=True),
        )

    def similarities(
        self,
        encoded: Any,
        *,
        query_norms: Any = None,
    ) -> np.ndarray:
        """``(n, k)`` similarity scores between queries and classes.

        The returned array is a float64 NumPy *container*; values are
        computed at the memory's storage dtype (float32-precision scores
        for the default hot path — see the module docstring for the
        contract).  ``query_norms`` are the queries' precomputed ``(n,)``
        row norms (see "Norm caching" in the module docstring).
        """
        H = self.as_encoded(encoded)
        b = self.backend
        if not b.is_native(H) or (
            hasattr(H, "dtype") and np.dtype(self.dtype) != H.dtype
        ):
            H = b.asarray(H, dtype=self.dtype)
        norms = self.class_norms() if self.metric == "cosine" else None
        check_query_norms(query_norms, int(H.shape[0]))
        return b.similarity_scores(
            H, self._vectors, metric=self.metric, memory_norms=norms,
            query_norms=query_norms,
        )

    def predict(
        self,
        encoded: Any,
        *,
        query_norms: Any = None,
    ) -> np.ndarray:
        """Most-similar class per query (paper inference step F)."""
        return np.argmax(
            self.similarities(encoded, query_norms=query_norms), axis=1
        )

    def topk(
        self,
        encoded: Any,
        k: int = 2,
        *,
        query_norms: Any = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` labels and their scores, most similar first.

        Returns ``(labels, scores)`` with shapes ``(n, k)``; selection uses
        an argpartition-style partial sort rather than a full argsort.
        ``query_norms`` is as in :meth:`similarities`.
        """
        if not 1 <= k <= self.n_classes:
            raise ValueError(
                f"k must lie in [1, {self.n_classes}], got {k}"
            )
        sims = self.similarities(encoded, query_norms=query_norms)
        return self.backend.topk_desc(sims, k)

    def normalized_native(self) -> Any:
        """Native row-normalised class bank, cached per version.

        The fused Algorithm-2 scoring path consumes this directly, so the
        normalisation runs once per training iteration instead of once per
        ``regenerate_step`` call.
        """
        from repro.hdc.ops import normalize_rows

        return self._cached(
            "normalized_native",
            lambda: normalize_rows(self._vectors, backend=self.backend),
        )

    def normalized(self) -> np.ndarray:
        """Row-normalised class hypervectors (``N_l`` in equation (1)).

        NumPy view of :meth:`normalized_native`, cached per version.
        Treat the result as read-only — it is shared across calls at the
        same version.
        """
        return self._cached(
            "normalized_numpy",
            lambda: self.backend.to_numpy(self.normalized_native()),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AssociativeMemory(n_classes={self.n_classes}, dim={self.dim}, "
            f"metric={self.metric!r}, dtype={np.dtype(self.dtype).name}, "
            f"backend={self.backend.name!r})"
        )
