"""Static random-projection encoders.

These are the "pre-generated static encoder" family the paper contrasts
against: a fixed Gaussian projection followed by an optional nonlinearity or
sign quantisation.  BaselineHD uses them.
"""

from __future__ import annotations

import numpy as np

from typing import Any

from repro.backend import BackendLike
from repro.hdc.encoders.base import RegenerableEncoder
from repro.utils.rng import SeedLike, as_rng

_ACTIVATIONS = ("linear", "sign", "tanh", "cos")


class RandomProjectionEncoder(RegenerableEncoder):
    """Linear random projection ``H = X @ B.T`` with optional activation.

    Parameters
    ----------
    n_features, dim:
        Input and output sizes.
    activation:
        ``"linear"`` (raw projection, Algorithm 1 line 1 of the paper),
        ``"sign"`` (bipolar hypervectors), ``"tanh"`` or ``"cos"``.
    seed:
        RNG seed.
    dtype, backend:
        Compute dtype and array backend.

    Although static encoders never regenerate during normal training, the
    class still implements :meth:`regenerate` so ablations can graft dynamic
    regeneration onto a linear encoder.
    """

    def __init__(
        self,
        n_features: int,
        dim: int,
        *,
        activation: str = "linear",
        seed: SeedLike = None,
        dtype: Any = None,
        backend: BackendLike = None,
    ) -> None:
        super().__init__(n_features, dim, dtype=dtype, backend=backend)
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {_ACTIVATIONS}, got {activation!r}"
            )
        self.activation = activation
        self._rng = as_rng(seed)
        # Same 1/sqrt(q) projection scaling as the RBF encoder so the "cos"
        # activation stays in its informative phase range on standardised
        # inputs (linear/sign/tanh are scale-robust but benefit too).
        self._scale = 1.0 / np.sqrt(self.n_features)
        self.base_vectors = self.backend.draw_normal(
            self._rng, 0.0, self._scale, (self.dim, self.n_features), self.dtype
        )
        self.regenerated_count = 0

    def _activate(self, projections: Any) -> Any:
        b = self.backend
        if self.activation == "linear":
            return projections
        if self.activation == "sign":
            # Break sign(0) ties to +1 so outputs stay strictly bipolar.
            return b.where(
                projections >= 0.0,
                b.ones_like(projections),
                -b.ones_like(projections),
            )
        if self.activation == "tanh":
            return b.tanh(projections)
        return b.cos(projections)

    def _encode(self, X: Any) -> Any:
        b = self.backend
        return self._activate(b.matmul(X, b.transpose(self.base_vectors)))

    def encode_dims(self, X: Any, dims: np.ndarray) -> Any:
        """Encode only the selected output dimensions (``(n, len(dims))``)."""
        dims = self._check_dims(dims)
        X = self._check_input(X)
        b = self.backend
        if dims.size == 0:
            return b.zeros((X.shape[0], 0), dtype=self.dtype)
        rows = b.take_rows(self.base_vectors, dims)
        return self._activate(b.matmul(X, b.transpose(rows)))

    def regenerate(self, dims: np.ndarray) -> None:
        dims = self._check_dims(dims)
        if dims.size == 0:
            return
        self.backend.set_rows(
            self.base_vectors,
            dims,
            self.backend.draw_normal(
                self._rng, 0.0, self._scale,
                (dims.size, self.n_features), self.dtype,
            ),
        )
        self.regenerated_count += int(dims.size)

    def effective_dim(self) -> int:
        """Effective dimensionality ``D* = D + total regenerated``."""
        return self.dim + self.regenerated_count
