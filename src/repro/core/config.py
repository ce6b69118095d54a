"""Hyper-parameter configuration for DistHD."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.utils.validation import (
    check_convergence_params,
    check_n_jobs,
    check_optional_positive_int,
    check_positive_float,
    check_positive_int,
    check_unit_interval,
)

VALID_INCORRECT_RULES = ("prose", "algorithm-box")
VALID_NORMALIZATIONS = ("l2", "l1", "minmax", "none")
VALID_SELECTIONS = ("intersection", "union", "m-only", "n-only")


@dataclass
class DistHDConfig:
    """All DistHD hyper-parameters in one validated record.

    Parameters mirror the paper's notation.

    Attributes
    ----------
    dim:
        Physical hypervector dimensionality ``D`` (paper default 0.5k).
    lr:
        Adaptive-learning rate ``η`` (Algorithm 1).
    alpha, beta, theta:
        Distance-matrix weights (Algorithm 2).  ``alpha`` weighs distance to
        the true label; ``beta`` and ``theta`` weigh proximity to the two
        wrong labels.  The paper requires ``theta < beta``.
    regen_rate:
        Regeneration rate ``R`` as a fraction in [0, 1] — the paper's
        ``R%`` of ``D`` candidates per distance vector.
    iterations:
        Maximum training iterations (epochs).
    batch_size:
        Mini-batch size for the adaptive-learning pass; ``None`` uses the
        full training set per step.
    single_pass_init:
        Initialise class hypervectors by bundling every encoded sample into
        its class before the first adaptive iteration (standard HDC
        initialisation; gives adaptive learning a trained starting point).
    rebundle_on_regen:
        After regenerating dimensions, immediately bundle the freshly
        encoded columns into the class memory so the new dimensions start
        trained ("regenerate ... for a more positive impact on the
        classification", §III-C).  Disable to let only subsequent adaptive
        iterations heal the reset columns (NeuralHD's convention).
    encoder:
        Encoder spec from the registry
        (:func:`repro.hdc.encoders.make_encoder`): ``"rbf"`` (paper
        default, dense O(q·D) projection) or ``"fastfood-rbf"`` (structured
        SORF chain, O(D log D) encode with O(D) parameter memory), plus the
        ``projection-*`` / ``structured-*`` ablation families.
    bandwidth:
        RBF encoder bandwidth (kernel-width knob of the RBF-family
        encoders; the plain projection encoders ignore it).
    incorrect_rule:
        Which formula scores incorrect samples — ``"prose"`` (§III-C text,
        the self-consistent default) or ``"algorithm-box"`` (Algorithm 2
        line 11 as printed, which rewards dimensions close to the true
        class — the opposite of what ``M`` marks; see
        :mod:`repro.core.regeneration`).
    normalization:
        How the distance matrices are normalised before column-summing
        (``"l2"`` rows, ``"l1"`` rows, ``"minmax"`` rows, or ``"none"``).
    selection:
        How the per-matrix top-R% candidate sets combine: the paper's
        ``"intersection"``, or ``"union"`` / ``"m-only"`` / ``"n-only"`` for
        ablations.
    convergence_patience / convergence_tol:
        Early stopping: stop when training accuracy has improved by less
        than ``convergence_tol`` for ``convergence_patience`` consecutive
        iterations.  ``convergence_patience=None`` disables early stopping.
    reservoir_size:
        Streaming only (``partial_fit``): number of recent samples kept in
        the regeneration reservoir (Algorithm 2 needs a population of
        partially-correct / incorrect samples to score dimensions — single
        mini-batches are too noisy).
    regen_every:
        Streaming only: run a regeneration step over the reservoir after
        this many ``partial_fit`` calls.
    n_jobs:
        Parallel workers for data-parallel sharded fitting (see
        :func:`repro.engine.shard.shard_fit`).  ``None`` or ``1`` trains
        single-process (the default, bit-identical to earlier releases);
        ``-1`` uses every visible core.  With more than one worker,
        ``fit`` routes through ``shard_fit`` automatically.
    backend:
        Array-compute backend for encoder/memory/training hot paths:
        ``"numpy"`` (the default) or an ``ArrayBackend`` instance — see
        :mod:`repro.backend`.
    dtype:
        Hot-path compute dtype, ``"float32"`` (default) or ``"float64"``.
        Similarity scores and metrics are always produced at float64.
    seed:
        Seed for the encoder and all training randomness.
    """

    dim: int = 500
    lr: float = 0.05
    alpha: float = 1.0
    beta: float = 1.0
    theta: float = 0.25
    regen_rate: float = 0.10
    iterations: int = 20
    batch_size: Optional[int] = None
    single_pass_init: bool = True
    rebundle_on_regen: bool = True
    encoder: str = "rbf"
    bandwidth: float = 0.5
    incorrect_rule: str = "prose"
    normalization: str = "l2"
    selection: str = "intersection"
    convergence_patience: Optional[int] = 5
    convergence_tol: float = 1e-3
    reservoir_size: int = 512
    regen_every: int = 10
    n_jobs: Optional[int] = None
    backend: str = "numpy"
    dtype: str = "float32"
    seed: Optional[int] = field(default=None)

    def __post_init__(self) -> None:
        check_positive_int(self.dim, "dim")
        check_positive_float(self.lr, "lr")
        if self.alpha < 0 or self.beta < 0 or self.theta < 0:
            raise ValueError(
                f"alpha, beta, theta must be non-negative, got "
                f"({self.alpha}, {self.beta}, {self.theta})"
            )
        if self.theta >= self.beta:
            raise ValueError(
                f"paper requires theta < beta, got theta={self.theta}, "
                f"beta={self.beta}"
            )
        check_unit_interval(self.regen_rate, "regen_rate")
        check_positive_int(self.iterations, "iterations")
        check_optional_positive_int(self.batch_size, "batch_size")
        check_positive_float(self.bandwidth, "bandwidth")
        # Fail fast on unknown encoder specs (same spirit as the backend /
        # dtype checks below).
        from repro.hdc.encoders import list_encoders

        if str(self.encoder).strip().lower() not in list_encoders():
            raise ValueError(
                f"encoder must be one of {list_encoders()}, "
                f"got {self.encoder!r}"
            )
        if self.incorrect_rule not in VALID_INCORRECT_RULES:
            raise ValueError(
                f"incorrect_rule must be one of {VALID_INCORRECT_RULES}, "
                f"got {self.incorrect_rule!r}"
            )
        if self.normalization not in VALID_NORMALIZATIONS:
            raise ValueError(
                f"normalization must be one of {VALID_NORMALIZATIONS}, "
                f"got {self.normalization!r}"
            )
        if self.selection not in VALID_SELECTIONS:
            raise ValueError(
                f"selection must be one of {VALID_SELECTIONS}, "
                f"got {self.selection!r}"
            )
        check_convergence_params(self.convergence_patience, self.convergence_tol)
        check_positive_int(self.reservoir_size, "reservoir_size")
        check_positive_int(self.regen_every, "regen_every")
        check_n_jobs(self.n_jobs)
        # Fail fast on unknown backend names / dtype specs (ArrayBackend
        # instances and NumPy dtypes are passed through unchanged).
        from repro.backend import get_backend, resolve_dtype

        get_backend(self.backend)
        resolve_dtype(self.dtype)

    def with_overrides(self, **kwargs) -> "DistHDConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    def effective_dim(self, iterations: Optional[int] = None) -> float:
        """Paper's ``D* = D + D · R% · iterations`` (planning estimate)."""
        iters = self.iterations if iterations is None else iterations
        return self.dim + self.dim * self.regen_rate * iters
