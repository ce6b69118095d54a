"""The DistHD classifier — the paper's primary contribution.

Training (Fig. 3 workflow):

1. encode the training set with a regenerable RBF encoder (step A);
2. each iteration, run one adaptive-learning pass (Algorithm 1, steps B/G/H);
3. top-2-classify the batch with the partially-trained model and partition
   samples into correct / partially-correct / incorrect (steps I/J);
4. build distance matrices M and N, select the intersection of their
   top-R% dimensions, and regenerate those dimensions — redraw encoder rows,
   reset class-memory columns, refresh the cached encoding (steps K/N/P/Q);
5. stop at convergence or after ``iterations`` passes.

Inference encodes queries with the final encoder and assigns the
most-cosine-similar class (steps D/E/F).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.adaptive import adaptive_fit_iteration
from repro.core.config import DistHDConfig
from repro.core.history import IterationRecord, TrainingHistory
from repro.core.regeneration import refresh_columns, regenerate_step
from repro.core.topk import partition_outcomes
from repro.engine.callbacks import ConvergenceCallback, EngineState, HistoryCallback
from repro.engine.training import IterationContext, TrainingEngine
from repro.estimator import BaseClassifier
from repro.backend import get_backend
from repro.hdc.encoders import RegenerableEncoder, make_encoder
from repro.hdc.memory import AssociativeMemory
from repro.utils.rng import as_rng, spawn_seed
from repro.utils.validation import check_features_match, check_matrix


class DistHDClassifier(BaseClassifier):
    """Hyperdimensional classifier with learner-aware dynamic encoding.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.DistHDConfig`; ``None`` uses paper
        defaults (D=500, R=10%, α=β=1, θ=0.25).
    **overrides:
        Convenience keyword overrides applied on top of ``config``
        (e.g. ``DistHDClassifier(dim=1000, seed=7)``).

    Attributes
    ----------
    encoder_:
        The fitted encoder (a
        :class:`~repro.hdc.encoders.base.RegenerableEncoder` built from
        ``config.encoder`` via the encoder registry).
    memory_:
        The fitted class-hypervector :class:`~repro.hdc.memory.AssociativeMemory`.
    history_:
        Per-iteration :class:`~repro.core.history.TrainingHistory`.
    n_iterations_:
        Iterations actually run (≤ ``config.iterations`` with early stopping).

    Examples
    --------
    >>> from repro.datasets import load_dataset
    >>> ds = load_dataset("ucihar", seed=0, scale=0.05)
    >>> clf = DistHDClassifier(dim=200, iterations=5, seed=0)
    >>> clf.fit(ds.train_x, ds.train_y).score(ds.test_x, ds.test_y)  # doctest: +SKIP
    0.9...
    """

    supports_streaming = True
    supports_sharding = True

    def __init__(self, config: Optional[DistHDConfig] = None, **overrides) -> None:
        super().__init__()
        base = config if config is not None else DistHDConfig()
        self.config = base.with_overrides(**overrides) if overrides else base
        self.encoder_: Optional[RegenerableEncoder] = None
        self.memory_: Optional[AssociativeMemory] = None
        self.history_: Optional[TrainingHistory] = None
        self.n_iterations_: int = 0
        self.total_regenerated_: int = 0
        self._reservoir_rng = None
        self._reservoir_x: Optional[np.ndarray] = None
        self._reservoir_y: Optional[np.ndarray] = None
        self._bundle_first_batch = False

    # -------------------------------------------------------------- training

    def _fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        init_memory: Optional[np.ndarray] = None,
        iterations: Optional[int] = None,
    ) -> None:
        """Batch training: encoder/memory setup plus the engine-driven loop.

        ``init_memory`` seeds the class bank from an existing (merged)
        memory instead of single-pass bundling, and ``iterations``
        overrides the config budget — together they form the refinement
        half of :meth:`shard_fit`.
        """
        cfg = self.config
        n_classes = int(self.classes_.size)
        self._reset_stream_state()
        rng = as_rng(cfg.seed)
        backend = get_backend(cfg.backend)
        self.encoder_ = make_encoder(
            cfg.encoder, X.shape[1], cfg.dim,
            bandwidth=cfg.bandwidth, seed=spawn_seed(rng),
            dtype=cfg.dtype, backend=backend,
        )
        self.memory_ = AssociativeMemory(
            n_classes, cfg.dim, dtype=cfg.dtype, backend=backend
        )
        self.history_ = TrainingHistory()
        shuffle_rng = as_rng(spawn_seed(rng))

        encoded = self.encoder_.encode(X)
        # Both passes of every iteration score this encoding, so its row
        # norms are computed once per version of it: here, and window by
        # window as each regeneration rewrites columns.
        norms = backend.norm(encoded, axis=1)
        if init_memory is not None:
            self.memory_.set_vectors(init_memory)
        elif cfg.single_pass_init:
            self.memory_.accumulate(encoded, y)

        def step(context: IterationContext) -> IterationRecord:
            adaptive_fit_iteration(
                self.memory_,
                encoded,
                y,
                lr=cfg.lr,
                batch_size=cfg.batch_size,
                shuffle_rng=shuffle_rng,
                query_norms=norms,
            )
            partition = partition_outcomes(
                self.memory_, encoded, y, query_norms=norms
            )
            train_acc = partition.correct.size / max(partition.n_samples, 1)
            rates = partition.rates()

            regenerated = 0
            if cfg.regen_rate > 0 and not context.is_last and not context.converged:
                report = regenerate_step(
                    encoded, y, partition, self.memory_, self.encoder_, cfg
                )
                regenerated = report.n_regenerated
                if regenerated:
                    # Refresh only the redrawn columns of the cached encoding.
                    refresh_columns(
                        self.encoder_, X, report.dims, encoded, norms,
                        memory=self.memory_ if cfg.rebundle_on_regen else None,
                        labels=y,
                    )

            return IterationRecord(
                iteration=context.iteration,
                train_accuracy=train_acc,
                top2_accuracy=partition.top2_accuracy(),
                regenerated=regenerated,
                effective_dim=self.encoder_.effective_dim(),
                partial_rate=rates["partial"],
                incorrect_rate=rates["incorrect"],
            )

        engine = TrainingEngine(
            cfg.iterations if iterations is None else iterations,
            callbacks=(
                HistoryCallback(self.history_),
                ConvergenceCallback(cfg.convergence_patience, cfg.convergence_tol),
            ),
        )
        state = EngineState()
        try:
            engine.run(step, state=state)
        finally:
            # Accurate even when a step raises mid-fit: completed
            # iterations, matching the records history_ holds.
            self.n_iterations_ = state.n_iterations

    # -------------------------------------------------------------- sharding

    def _configured_n_jobs(self) -> Optional[int]:
        return self.config.n_jobs

    def _shard_seed(self) -> Optional[int]:
        return self.config.seed

    def _set_shard_seed(self, seed: Optional[int]) -> None:
        self.config = self.config.with_overrides(seed=seed)

    def _iteration_budget(self) -> int:
        return self.config.iterations

    def _configure_for_shard(self, shard_iterations: Optional[int]) -> None:
        overrides = {"regen_rate": 0.0, "n_jobs": None}
        if shard_iterations is not None:
            overrides["iterations"] = shard_iterations
        self.config = self.config.with_overrides(**overrides)

    # ------------------------------------------------------------- streaming

    def _reset_stream_state(self) -> None:
        self.n_batches_ = 0
        self.n_samples_seen_ = 0
        self.total_regenerated_ = 0
        self._reservoir_rng = None
        self._reservoir_x = None
        self._reservoir_y = None
        self._bundle_first_batch = False

    def _ensure_stream_state(self) -> None:
        """Create encoder/memory/reservoir for incremental training.

        Idempotent: a model that already holds batch-fitted state keeps it
        (``partial_fit`` then refines the fitted model), only the reservoir
        is added.
        """
        if self.encoder_ is not None and self._reservoir_x is not None:
            return
        cfg = self.config
        rng = as_rng(cfg.seed)
        encoder_seed, reservoir_seed = spawn_seed(rng), spawn_seed(rng)
        if self.encoder_ is None:
            backend = get_backend(cfg.backend)
            self.encoder_ = make_encoder(
                cfg.encoder, self.n_features_, cfg.dim,
                bandwidth=cfg.bandwidth, seed=encoder_seed,
                dtype=cfg.dtype, backend=backend,
            )
            self.memory_ = AssociativeMemory(
                int(self.classes_.size), cfg.dim,
                dtype=cfg.dtype, backend=backend,
            )
            self.history_ = TrainingHistory()
            # Fresh model: classic one-shot bundling of the first batch.
            self._bundle_first_batch = cfg.single_pass_init
        if self._reservoir_x is None:
            self._reservoir_rng = as_rng(reservoir_seed)
            self._reservoir_x = np.empty((0, self.n_features_), dtype=np.float64)
            self._reservoir_y = np.empty(0, dtype=np.int64)

    def _partial_fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """One streamed mini-batch: encode, adapt, maybe regenerate.

        Runs DistHD's machinery incrementally — each batch gets one
        Algorithm-1 adaptive pass, and every ``config.regen_every`` batches
        an Algorithm-2 regeneration step runs over a sliding reservoir of
        recent samples (single batches are too noisy to score dimensions).
        This extends the paper (its evaluation is batch training) but is a
        direct composition of its two algorithms; the reservoir plays the
        role of the "batch data" in the paper's Fig. 3 workflow.
        """
        cfg = self.config
        self._ensure_stream_state()
        encoded = self.encoder_.encode(X)
        if self._bundle_first_batch and self.n_batches_ == 1:
            self.memory_.accumulate(encoded, y)
        adaptive_fit_iteration(self.memory_, encoded, y, lr=cfg.lr)
        self._update_reservoir(X, y)
        if (
            cfg.regen_rate > 0
            and self.n_batches_ % cfg.regen_every == 0
            and self._reservoir_x.shape[0] >= self.classes_.size * 2
        ):
            self._regenerate_from_reservoir()

    def _update_reservoir(self, X: np.ndarray, labels: np.ndarray) -> None:
        """Uniform reservoir sampling over the stream."""
        self._reservoir_x = np.vstack([self._reservoir_x, X])
        self._reservoir_y = np.concatenate([self._reservoir_y, labels])
        excess = self._reservoir_x.shape[0] - self.config.reservoir_size
        if excess > 0:
            keep = self._reservoir_rng.choice(
                self._reservoir_x.shape[0], size=self.config.reservoir_size,
                replace=False,
            )
            keep.sort()
            self._reservoir_x = self._reservoir_x[keep]
            self._reservoir_y = self._reservoir_y[keep]

    def _regenerate_from_reservoir(self) -> None:
        encoded = self.encoder_.encode(self._reservoir_x)
        partition = partition_outcomes(
            self.memory_, encoded, self._reservoir_y
        )
        report = regenerate_step(
            encoded, self._reservoir_y, partition, self.memory_,
            self.encoder_, self.config,
        )
        if report.n_regenerated and self.config.rebundle_on_regen:
            fresh = self.encoder_.encode_dims(self._reservoir_x, report.dims)
            self.memory_.bundle_columns(self._reservoir_y, report.dims, fresh)
        self.total_regenerated_ += report.n_regenerated

    # ------------------------------------------------------------- inference

    def decision_scores(self, X) -> np.ndarray:
        """Cosine similarity of each query against each class hypervector.

        The whole batch is encoded at once; a deployed artifact
        (:class:`~repro.deploy.StagedModel`) is what scores in bounded row
        windows.
        """
        self._check_fitted()
        X = check_matrix(X, "X")
        check_features_match(self.n_features_, X.shape[1], type(self).__name__)
        return self.memory_.similarities(self.encoder_.encode(X))

    def encode(self, X) -> np.ndarray:
        """Expose the fitted encoder (useful for robustness experiments)."""
        self._check_fitted()
        return self.encoder_.encode(check_matrix(X, "X"))

    # ------------------------------------------------------------ properties

    @property
    def effective_dim_(self) -> int:
        """Paper's D*: physical D plus all dimensions regenerated during fit."""
        self._check_fitted()
        return self.encoder_.effective_dim()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistHDClassifier(dim={self.config.dim}, regen_rate={self.config.regen_rate})"
