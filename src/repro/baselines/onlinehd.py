"""OnlineHD-style baseline: adaptive learning, static encoder.

This sits exactly between BaselineHD and DistHD: it uses DistHD's
similarity-weighted adaptive update (Algorithm 1) but never regenerates
dimensions.  Comparing the three isolates how much of DistHD's gain comes
from adaptive weighting versus dimension regeneration — the ablation
``benchmarks/test_ablations.py::test_ablation_adaptive_vs_regeneration``
runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import get_backend, resolve_dtype
from repro.core.adaptive import adaptive_fit_iteration
from repro.core.history import IterationRecord, TrainingHistory
from repro.engine.callbacks import ConvergenceCallback, EngineState, HistoryCallback
from repro.engine.training import IterationContext, TrainingEngine
from repro.estimator import BaseClassifier
from repro.hdc.encoders import (
    RegenerableEncoder,
    list_encoders,
    make_encoder,
)
from repro.hdc.memory import AssociativeMemory
from repro.utils.rng import as_rng, spawn_seed
from repro.utils.validation import (
    check_convergence_params,
    check_features_match,
    check_matrix,
    check_n_jobs,
    check_positive_float,
    check_positive_int,
)


class OnlineHDClassifier(BaseClassifier):
    """Adaptive HDC with a static encoder (no dimension regeneration).

    Parameters mirror :class:`~repro.core.disthd.DistHDClassifier` minus the
    regeneration knobs.

    With a static encoder the adaptive pass is naturally incremental, so
    this model also supports :meth:`partial_fit` (one adaptive pass per
    mini-batch) — no reservoir or regeneration machinery needed.
    """

    supports_streaming = True
    supports_sharding = True

    def __init__(
        self,
        dim: int = 500,
        *,
        lr: float = 0.05,
        iterations: int = 30,
        batch_size: Optional[int] = None,
        single_pass_init: bool = True,
        encoder: str = "rbf",
        bandwidth: float = 0.5,
        convergence_patience: Optional[int] = 5,
        convergence_tol: float = 1e-3,
        n_jobs: Optional[int] = None,
        dtype="float32",
        backend="numpy",
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.dim = check_positive_int(dim, "dim")
        self.lr = check_positive_float(lr, "lr")
        self.iterations = check_positive_int(iterations, "iterations")
        self.batch_size = batch_size
        self.single_pass_init = bool(single_pass_init)
        if str(encoder).strip().lower() not in list_encoders():
            raise ValueError(
                f"encoder must be one of {list_encoders()}, got {encoder!r}"
            )
        self.encoder = str(encoder)
        self.bandwidth = float(bandwidth)
        self.convergence_patience, self.convergence_tol = (
            check_convergence_params(convergence_patience, convergence_tol)
        )
        self.n_jobs = check_n_jobs(n_jobs)
        self.dtype = resolve_dtype(dtype)
        self.backend = get_backend(backend)
        self.seed = seed
        self.encoder_: Optional[RegenerableEncoder] = None
        self.memory_: Optional[AssociativeMemory] = None
        self.history_: Optional[TrainingHistory] = None
        self.n_iterations_: int = 0
        self._bundle_first_batch = False

    def _fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        init_memory: Optional[np.ndarray] = None,
        iterations: Optional[int] = None,
    ) -> None:
        n_classes = int(self.classes_.size)
        self._bundle_first_batch = False
        rng = as_rng(self.seed)
        self.encoder_ = make_encoder(
            self.encoder, X.shape[1], self.dim, bandwidth=self.bandwidth,
            seed=spawn_seed(rng), dtype=self.dtype, backend=self.backend,
        )
        self.memory_ = AssociativeMemory(
            n_classes, self.dim, dtype=self.dtype, backend=self.backend
        )
        self.history_ = TrainingHistory()
        shuffle_rng = as_rng(spawn_seed(rng))

        encoded = self.encoder_.encode(X)
        # A static encoder never changes the encoding: one set of row norms.
        norms = self.backend.norm(encoded, axis=1)
        if init_memory is not None:
            self.memory_.set_vectors(init_memory)
        elif self.single_pass_init:
            self.memory_.accumulate(encoded, y)

        def step(context: IterationContext) -> IterationRecord:
            adaptive_fit_iteration(
                self.memory_,
                encoded,
                y,
                lr=self.lr,
                batch_size=self.batch_size,
                shuffle_rng=shuffle_rng,
                query_norms=norms,
            )
            train_acc = float(np.mean(
                self.memory_.predict(encoded, query_norms=norms) == y
            ))
            return IterationRecord(
                iteration=context.iteration, train_accuracy=train_acc
            )

        engine = TrainingEngine(
            self.iterations if iterations is None else iterations,
            callbacks=(
                HistoryCallback(self.history_),
                ConvergenceCallback(
                    self.convergence_patience, self.convergence_tol
                ),
            ),
        )
        state = EngineState()
        try:
            engine.run(step, state=state)
        finally:
            # Accurate even when a step raises mid-fit: completed
            # iterations, matching the records history_ holds.
            self.n_iterations_ = state.n_iterations

    def _configure_for_shard(self, shard_iterations: Optional[int]) -> None:
        # Static encoder: nothing can diverge across shards; just stop the
        # worker from recursing into the shard path.
        self.n_jobs = None
        if shard_iterations is not None:
            self.iterations = int(shard_iterations)

    def _partial_fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """One streamed mini-batch: encode, then one adaptive pass."""
        if self.encoder_ is None:
            rng = as_rng(self.seed)
            self.encoder_ = make_encoder(
                self.encoder, self.n_features_, self.dim,
                bandwidth=self.bandwidth, seed=spawn_seed(rng),
                dtype=self.dtype, backend=self.backend,
            )
            self.memory_ = AssociativeMemory(
                int(self.classes_.size), self.dim,
                dtype=self.dtype, backend=self.backend,
            )
            self.history_ = TrainingHistory()
            self._bundle_first_batch = self.single_pass_init
        encoded = self.encoder_.encode(X)
        if self._bundle_first_batch and self.n_batches_ == 1:
            self.memory_.accumulate(encoded, y)
        adaptive_fit_iteration(self.memory_, encoded, y, lr=self.lr)

    def decision_scores(self, X) -> np.ndarray:
        """Cosine similarities of encoded queries against class memory."""
        self._check_fitted()
        X = check_matrix(X, "X")
        check_features_match(self.n_features_, X.shape[1], type(self).__name__)
        return self.memory_.similarities(self.encoder_.encode(X))
