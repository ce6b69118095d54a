"""NeuralHD — dynamic encoding by variance-based dimension significance.

Reimplementation of the comparator in Zou et al., *Scalable edge-based
hyperdimensional learning system with brain-like neural adaptation* (SC'21),
as the paper describes it: after each retraining epoch, rank encoder
dimensions by how much they help *distinguish* classes — measured as the
dispersion of the (normalised) class hypervectors along each dimension — and
regenerate the least-significant R% of dimensions.

The key contrast with DistHD: NeuralHD's significance score looks only at
the class memory (learner-agnostic), while DistHD scores dimensions by the
classification *mistakes* they cause (learner-aware).  The paper reports
NeuralHD converging slower at equal dimensionality; the convergence benches
reproduce that shape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import get_backend, resolve_dtype
from repro.core.adaptive import adaptive_fit_iteration
from repro.core.history import IterationRecord, TrainingHistory
from repro.core.regeneration import refresh_columns
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
    check_unit_interval,
)


def dimension_significance(memory: AssociativeMemory) -> np.ndarray:
    """Per-dimension significance: dispersion of normalised class vectors.

    A dimension along which all class hypervectors carry similar values does
    not help separate classes; NeuralHD scores dimension ``d`` by the
    variance of ``{C_1[d], ..., C_k[d]}`` after row-normalising the memory
    (so magnitude imbalances between classes don't dominate).
    """
    normalized = memory.normalized()
    return np.var(normalized, axis=0)


class NeuralHDClassifier(BaseClassifier):
    """Dynamic-encoder HDC baseline with variance-ranked regeneration.

    Parameters
    ----------
    dim:
        Physical dimensionality (paper operating point: 0.5k).
    regen_rate:
        Fraction of dimensions regenerated per epoch (least significant).
    lr, iterations, bandwidth, seed:
        As in :class:`~repro.baselines.baselinehd.BaselineHDClassifier`;
        training uses the same adaptive pass as DistHD so the comparison
        isolates the dimension-selection policy.
    single_pass_init:
        Bundle all samples into their classes before retraining.
    rebundle_on_regen:
        Immediately bundle regenerated columns back into class memory.
        Defaults to ``False``, matching the original NeuralHD procedure
        where reset dimensions are healed only by subsequent retraining
        epochs (the cause of its slower convergence the paper reports);
        set ``True`` for the DistHD-style instant-retrain ablation.
    convergence_patience / convergence_tol:
        Early stopping.
    """

    supports_sharding = True

    def __init__(
        self,
        dim: int = 500,
        *,
        regen_rate: float = 0.10,
        lr: float = 0.05,
        iterations: int = 30,
        encoder: str = "rbf",
        bandwidth: float = 0.5,
        single_pass_init: bool = True,
        rebundle_on_regen: bool = False,
        convergence_patience: Optional[int] = 5,
        convergence_tol: float = 1e-3,
        n_jobs: Optional[int] = None,
        dtype="float32",
        backend="numpy",
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.dim = check_positive_int(dim, "dim")
        self.regen_rate = check_unit_interval(regen_rate, "regen_rate")
        self.lr = check_positive_float(lr, "lr")
        self.iterations = check_positive_int(iterations, "iterations")
        if str(encoder).strip().lower() not in list_encoders():
            raise ValueError(
                f"encoder must be one of {list_encoders()}, got {encoder!r}"
            )
        self.encoder = str(encoder)
        self.bandwidth = float(bandwidth)
        self.single_pass_init = bool(single_pass_init)
        self.rebundle_on_regen = bool(rebundle_on_regen)
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

    def _fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        init_memory: Optional[np.ndarray] = None,
        iterations: Optional[int] = None,
    ) -> None:
        n_classes = int(self.classes_.size)
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
        # Row norms of the encoding, refreshed (window by window) only when
        # a regeneration rewrites its columns.
        norms = self.backend.norm(encoded, axis=1)
        if init_memory is not None:
            self.memory_.set_vectors(init_memory)
        elif self.single_pass_init:
            self.memory_.accumulate(encoded, y)
        n_regen = int(round(self.regen_rate * self.dim))

        def step(context: IterationContext) -> IterationRecord:
            adaptive_fit_iteration(
                self.memory_, encoded, y, lr=self.lr, shuffle_rng=shuffle_rng,
                query_norms=norms,
            )
            train_acc = float(np.mean(
                self.memory_.predict(encoded, query_norms=norms) == y
            ))

            regenerated = 0
            if n_regen > 0 and not context.is_last and not context.converged:
                significance = dimension_significance(self.memory_)
                dims = np.sort(np.argsort(significance, kind="stable")[:n_regen])
                self.encoder_.regenerate(dims)
                self.memory_.reset_dimensions(dims)
                refresh_columns(
                    self.encoder_, X, dims, encoded, norms,
                    memory=self.memory_ if self.rebundle_on_regen else None,
                    labels=y,
                )
                regenerated = dims.size

            return IterationRecord(
                iteration=context.iteration,
                train_accuracy=train_acc,
                regenerated=regenerated,
                effective_dim=self.encoder_.effective_dim(),
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
        # Workers must never regenerate: redrawn encoder rows would make
        # the shard banks incompatible with the shared seed encoder.
        self.regen_rate = 0.0
        self.n_jobs = None
        if shard_iterations is not None:
            self.iterations = int(shard_iterations)

    def decision_scores(self, X) -> np.ndarray:
        """Cosine similarities of encoded queries against class memory."""
        self._check_fitted()
        X = check_matrix(X, "X")
        check_features_match(self.n_features_, X.shape[1], type(self).__name__)
        return self.memory_.similarities(self.encoder_.encode(X))
