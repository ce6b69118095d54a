"""The RBF-inspired nonlinear encoder (paper §III-C, "Dimension Regeneration").

For a feature vector ``F`` with ``q`` features, dimension ``i`` of the encoded
hypervector is

    h_i = cos(B_i · F + c_i) * sin(B_i · F)

with base vector ``B_i ~ N(0, σ²)^q`` and phase ``c_i ~ U[0, 2π)``.  This is
the random-Fourier-feature construction of Rahimi & Recht that the paper
cites, with the cos·sin product giving a bounded nonlinearity in [-1, 1].

The product is computed through the product-to-sum identity

    cos(p + c)·sin(p) = ½[sin(2p + c) − sin c],     p = B_i · F,

as one in-place pass over the projection (:func:`rff_activate`): the GEMM
runs on ``F + F`` (doubling is exact, so it yields ``2p`` bit for bit), then
``+= c``, one ``sin`` and ``(· − sin c)·½`` overwrite that one output array.
That is one transcendental per cell instead of two and no ``(n, D)``
temporaries.  Results differ from the literal ``cos·sin`` product by float
rounding only: at most 7e-7 at float32 and 2e-15 at float64 over a
(2805, 54) → 4096 standardised batch.

The paper writes ``b ~ Gaussian(µ=0, σ=1)`` but leaves the input scaling
implicit.  For standardised inputs with ``q`` features, ``B_i·F`` then has
standard deviation ``√q`` (≈24 on UCIHAR), wrapping the phase dozens of times
and turning the encoder into a random hash with no generalisation.  Working
HDC implementations normalise for this; we draw
``B_i ~ N(0, (bandwidth/√q)²)`` so the projection is O(1)-scale for
standardised inputs, with ``bandwidth`` as the kernel-width knob.

Regeneration redraws ``B_i`` (and ``c_i``) for selected dimensions — the
mechanical heart of DistHD's dynamic encoding.
"""

from __future__ import annotations

import numpy as np

from typing import Any

from repro.backend import BackendLike
from repro.hdc.encoders.base import RegenerableEncoder
from repro.utils.rng import SeedLike, as_rng


def rff_activate(out: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Overwrite ``out`` (doubled projections ``2p``) with ``cos(p + c)·sin(p)``.

    Computes ``½[sin(2p + c) − sin c]`` in place, broadcasting the ``(d,)``
    phases ``c`` over ``out``'s ``(n, d)`` rows, and returns ``out``.
    ``sin c`` is recomputed per call: ``d`` values beside an ``(n, d)`` pass.
    Shared by :class:`RBFEncoder` and
    :class:`~repro.hdc.encoders.structured.FastfoodRBFEncoder`.
    """
    out += phases
    np.sin(out, out=out)
    out -= np.sin(phases)
    out *= 0.5
    return out


class RBFEncoder(RegenerableEncoder):
    """Nonlinear random-projection encoder with per-dimension regeneration.

    Parameters
    ----------
    n_features:
        Input feature count ``q``.
    dim:
        Output dimensionality ``D``.
    bandwidth:
        Kernel-width knob: base vectors are drawn from
        ``N(0, (bandwidth/√n_features)²)`` (larger → higher-frequency
        features).
    seed:
        RNG seed; regeneration draws continue from the same stream so a full
        training run is reproducible end-to-end.  Draws are materialised via
        NumPy regardless of backend, so encoders built at the same seed are
        bit-identical across backends.
    dtype, backend:
        Compute dtype and array backend for parameters and encodings.

    Attributes
    ----------
    base_vectors:
        ``(D, q)`` Gaussian projection matrix (row ``i`` is ``B_i``).
    phases:
        ``(D,)`` phase offsets ``c``.
    regenerated_count:
        Total number of dimension redraws performed over the encoder's
        lifetime; the paper's *effective dimensionality* is
        ``D + regenerated_count`` (``D* = D + D·R%·iterations``).
    """

    def __init__(
        self,
        n_features: int,
        dim: int,
        *,
        bandwidth: float = 1.0,
        seed: SeedLike = None,
        dtype: Any = None,
        backend: BackendLike = None,
    ) -> None:
        super().__init__(n_features, dim, dtype=dtype, backend=backend)
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = float(bandwidth)
        self._scale = self.bandwidth / np.sqrt(self.n_features)
        self._rng = as_rng(seed)
        b = self.backend
        self.base_vectors = b.draw_normal(
            self._rng, 0.0, self._scale, (self.dim, self.n_features), self.dtype
        )
        self.phases = b.draw_uniform(
            self._rng, 0.0, 2.0 * np.pi, self.dim, self.dtype
        )
        self.regenerated_count = 0

    def _encode(self, X: Any) -> Any:
        b = self.backend
        # X may be the caller's own array, so double into a fresh (n, q)
        # copy; the (n, D) GEMM output is the only large allocation.
        two_p = b.matmul(X + X, b.transpose(self.base_vectors))
        return rff_activate(two_p, self.phases)

    def encode_dims(self, X: Any, dims: np.ndarray) -> Any:
        """Encode only the selected output dimensions (``(n, len(dims))``).

        Lets training refresh just the regenerated columns of a cached
        encoding instead of re-encoding the full batch.
        """
        dims = self._check_dims(dims)
        X = self._check_input(X)
        b = self.backend
        if dims.size == 0:
            return b.zeros((X.shape[0], 0), dtype=self.dtype)
        rows = b.take_rows(self.base_vectors, dims)
        two_p = b.matmul(X + X, b.transpose(rows))
        return rff_activate(two_p, b.take_rows(self.phases, dims))

    def regenerate(self, dims: np.ndarray) -> None:
        """Redraw base vectors and phases for the given output dimensions."""
        dims = self._check_dims(dims)
        if dims.size == 0:
            return
        b = self.backend
        b.set_rows(
            self.base_vectors,
            dims,
            b.draw_normal(
                self._rng, 0.0, self._scale,
                (dims.size, self.n_features), self.dtype,
            ),
        )
        b.set_rows(
            self.phases,
            dims,
            b.draw_uniform(self._rng, 0.0, 2.0 * np.pi, dims.size, self.dtype),
        )
        self.regenerated_count += int(dims.size)

    def effective_dim(self) -> int:
        """Paper's effective dimensionality ``D* = D + total regenerated``."""
        return self.dim + self.regenerated_count
