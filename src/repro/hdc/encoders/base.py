"""Encoder interfaces.

Two protocols:

- :class:`Encoder` — anything mapping an ``(n, q)`` feature matrix to an
  ``(n, D)`` hypervector batch;
- :class:`RegenerableEncoder` — encoders whose individual output dimensions
  can be redrawn, the capability DistHD and NeuralHD build on.

Encoders carry a compute dtype and an
:class:`~repro.backend.base.ArrayBackend`: parameters are stored and
encodings produced at ``dtype`` on the chosen backend (float64 NumPy by
default; the model configs run the hot paths at float32).
"""

from __future__ import annotations

import abc

from typing import Any

import numpy as np

from repro.backend import BackendLike, get_backend, resolve_dtype
from repro.utils.validation import check_features_match, check_matrix


class Encoder(abc.ABC):
    """Maps feature vectors onto hyperdimensional space.

    Attributes
    ----------
    n_features:
        Expected input feature count ``q``.
    dim:
        Output hypervector dimensionality ``D``.
    dtype:
        Output (and parameter) dtype.
    backend:
        The :class:`~repro.backend.base.ArrayBackend` encodings run on.
    """

    def __init__(
        self,
        n_features: int,
        dim: int,
        *,
        dtype: Any = None,
        backend: BackendLike = None,
    ) -> None:
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.n_features = int(n_features)
        self.dim = int(dim)
        self.dtype = resolve_dtype(dtype)
        self.backend = get_backend(backend)

    def encode(self, X: Any) -> Any:
        """Encode ``(n, q)`` features into ``(n, D)`` hypervectors.

        Encoding is row-independent, but a dense GEMM may round a lone row
        differently from the same row inside a batch of two or more: row
        windows of at least two rows, encoded one call each and
        concatenated, are bit-identical to one call on the whole batch; a
        one-row window agrees to float rounding (see docs/performance.md,
        "Encode determinism").
        """
        return self._encode(self._check_input(X))

    def _check_input(self, X: Any) -> Any:
        """Validate features and cast them to the encoder's dtype/backend.

        NumPy inputs (and anything coercible) get the full ``check_matrix``
        treatment — shape and finiteness — without a dtype-changing copy;
        native arrays of a custom non-NumPy backend are shape-checked only.
        """
        b = self.backend
        if isinstance(X, np.ndarray) or not b.is_native(X):
            X = check_matrix(X, "X", dtype=None)
        elif X.ndim == 1:
            X = X.reshape(1, -1)
        check_features_match(self.n_features, X.shape[1], type(self).__name__)
        return b.asarray(X, dtype=self.dtype)

    @abc.abstractmethod
    def _encode(self, X: Any) -> Any:
        """Encode validated input (subclass hook)."""

    def __call__(self, X: Any) -> Any:
        return self.encode(X)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_features={self.n_features}, dim={self.dim})"


class RegenerableEncoder(Encoder):
    """An encoder whose output dimensions can be individually redrawn."""

    @abc.abstractmethod
    def regenerate(self, dims: np.ndarray) -> None:
        """Redraw the parameters producing the given output dimensions.

        After this call, encoding the same input yields fresh values at
        ``dims`` and identical values everywhere else.
        """

    def _check_dims(self, dims: np.ndarray) -> np.ndarray:
        arr = np.asarray(dims)
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            # An int64 cast would silently truncate 2.7 -> 2; make the
            # caller pass real indices.
            raise ValueError(
                f"dimension indices must be integers, got dtype {arr.dtype}"
            )
        dims = arr.astype(np.int64, copy=False).ravel()
        if dims.size and (dims.min() < 0 or dims.max() >= self.dim):
            raise ValueError(
                f"dimension indices must lie in [0, {self.dim}), got range "
                f"[{dims.min()}, {dims.max()}]"
            )
        return dims
