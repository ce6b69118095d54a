"""Structured O(D log D) projection encoders (SORF / Fastfood).

Every dense encoder in the repo pays an ``O(n·q·D)`` matmul against a
materialised ``(D, q)`` Gaussian matrix.  The encoders here replace that
matrix with the *structured orthogonal random features* (SORF) chain

    y_block = H D₃ H D₂ H D₁ x_pad

where ``x_pad`` is the feature vector zero-padded to ``m = next_pow2(q)``,
each ``Dᵢ`` is a seed-derived Rademacher (±1) diagonal, and ``H`` is the
``m × m`` Walsh–Hadamard matrix applied in ``O(m log m)`` by
:meth:`repro.backend.base.ArrayBackend.fwht_rows`.  Blocks are stacked —
``nb = ceil(D / m)`` independent chains — to reach an arbitrary output
dimensionality ``D``; parameter memory is ``O(nb · m) = O(D)`` instead of
``O(q · D)``.

Scaling
-------
For the chain above, each output entry has standard deviation ``m · ‖x‖``
(each ``H`` multiplies norms by ``√m`` and the matrix ``H D₃ H D₂ H D₁``
satisfies ``E[MᵀM] = m³ I``, so per-row second moments are ``m²``).  To mimic
a dense projection ``B_i ~ N(0, σ²)^q`` the chain output is multiplied by a
per-output-dimension scale

    scale_d = (σ / m) · √(χ²_q / q)

where the chi-squared factor reproduces the row-norm fluctuations of a true
Gaussian matrix (Fastfood's scaling diagonal ``S``).  ``σ`` matches the dense
counterparts: ``1/√q`` for :class:`StructuredProjectionEncoder` (mirroring
``RandomProjectionEncoder``) and ``bandwidth/√q`` for
:class:`FastfoodRBFEncoder` (mirroring ``RBFEncoder``).

Regeneration
------------
Output dimension ``d`` reads chain slot ``src_slots[d]`` (of the
``nb · m`` produced), initialised to the identity ``d → d`` — slots are
exchangeable, so this costs nothing and keeps the gather a free slice until
the first regeneration.  :meth:`StructuredProjectionEncoder.regenerate`
redraws, per selected dimension, the source slot (uniform over all slots,
*with replacement* — a collision merely correlates two output dimensions and
is rare for large ``D``), the chi-distributed scale, and (Fastfood) the
phase, so DistHD/NeuralHD regeneration keeps working without touching the
shared diagonals other dimensions depend on.

Determinism
-----------
All draws are materialised on the host NumPy generator in a fixed order
(signs, then scales, then Fastfood phases; regeneration continues the same
stream), so encoders built at the same seed are bit-identical across
backends — the invariant ``shard_fit`` and the bundling merge rely on.
"""

from __future__ import annotations

import numpy as np

from typing import Any

from repro.backend import BackendLike
from repro.hdc.encoders.base import RegenerableEncoder
from repro.hdc.encoders.rbf import rff_activate
from repro.hdc.fwht import next_pow2
from repro.utils.rng import SeedLike, as_rng

_ACTIVATIONS = ("linear", "sign", "tanh", "cos")


class StructuredProjectionEncoder(RegenerableEncoder):
    """SORF-chain counterpart of :class:`RandomProjectionEncoder`.

    Parameters
    ----------
    n_features, dim:
        Input and output sizes.  Inputs are zero-padded to
        ``block = next_pow2(n_features)`` columns; ``ceil(dim / block)``
        chains are stacked and the first ``dim`` outputs kept.
    activation:
        ``"linear"``, ``"sign"``, ``"tanh"`` or ``"cos"`` — same contract as
        the dense projection encoder.
    seed:
        RNG seed; all draws (and regeneration redraws) come from one host
        NumPy stream, so same seed ⇒ bit-identical parameters on every
        backend.
    dtype, backend:
        Compute dtype and array backend.

    Attributes
    ----------
    block:
        Padded chain width ``m`` (power of two).
    n_blocks:
        Stacked chain count ``nb``.
    signs:
        ``(nb, 3, m)`` Rademacher diagonals — the ``D₁, D₂, D₃`` of each
        chain.
    src_slots:
        ``(dim,)`` host int64 map from output dimension to chain slot.
    scales:
        ``(dim,)`` per-output-dimension scale (base ``σ/m`` times the
        chi-distributed row-norm factor).
    regenerated_count:
        Lifetime dimension-redraw total (effective dimensionality is
        ``dim + regenerated_count``).
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
        b = self.backend
        self.block = next_pow2(self.n_features)
        self.n_blocks = -(-self.dim // self.block)
        self._n_slots = self.n_blocks * self.block
        # Rademacher diagonals, drawn on the host generator (not via the
        # backend draw helpers, which have no ±1 draw) so every backend sees
        # identical signs for a given seed.
        signs = self._rng.integers(0, 2, size=(self.n_blocks, 3, self.block))
        self.signs = b.asarray(2.0 * signs - 1.0, dtype=self.dtype)
        self.scales = b.asarray(self._draw_scales(self.dim), dtype=self.dtype)
        # Identity slot map: slots are exchangeable, so starting at d -> d
        # is as random as any permutation and keeps the output gather a
        # plain slice until the first regeneration.
        self.src_slots = np.arange(self.dim, dtype=np.int64)
        self._identity_slots = True
        self.regenerated_count = 0

    def _sigma(self) -> float:
        """Std-dev of the dense Gaussian projection being mimicked."""
        return 1.0 / np.sqrt(self.n_features)

    def _draw_scales(self, count: int) -> np.ndarray:
        q = self.n_features
        chi = np.sqrt(self._rng.chisquare(q, count) / q)
        return (self._sigma() / self.block) * chi

    # ------------------------------------------------------------ projection

    def _chain(self, X: Any, signs: Any, nb: int) -> Any:
        """Run ``H D₃ H D₂ H D₁ x_pad`` for ``nb`` blocks → ``(n, nb·m)``.

        One ``(n·nb, m)`` work buffer carries the whole chain: the first
        diagonal is fused into the padded scatter of ``X``, and each
        ``fwht_rows`` call may transform the buffer in place (the backend
        contract), so the only allocations are the buffer itself and
        whatever scratch the kernel keeps.
        """
        b = self.backend
        n = int(X.shape[0])
        q, m = self.n_features, self.block
        work = b.empty((n * nb, m), dtype=self.dtype)
        w3 = work.reshape(n, nb, m)
        if q < m:
            w3[:, :, q:] = 0
        w3[:, :, :q] = X.reshape(n, 1, q) * signs[:, 0, :q]
        work = b.fwht_rows(work)
        w3 = work.reshape(n, nb, m)
        w3 *= signs[:, 1, :]
        work = b.fwht_rows(w3.reshape(n * nb, m))
        w3 = work.reshape(n, nb, m)
        w3 *= signs[:, 2, :]
        work = b.fwht_rows(w3.reshape(n * nb, m))
        return work.reshape(n, nb * m)

    def _project(self, X: Any) -> Any:
        flat = self._chain(X, self.signs, self.n_blocks)
        if self._identity_slots:
            proj = flat[:, : self.dim]
        else:
            # Gather row-major, as a windowed encode's output is:
            # ``flat[:, idx]`` lays its result out column-major, and every
            # later pass, the row norms included, inherits that layout.
            # np.take is also ~4x faster at D = 4096.
            proj = np.take(flat, self.src_slots, axis=1)
        proj *= self.scales
        return proj

    def _encode(self, X: Any) -> Any:
        return self._activate(self._project(X))

    def _activate(self, proj: Any) -> Any:
        b = self.backend
        if self.activation == "linear":
            # proj may be a view into the (n, nb·m) work buffer; copy so the
            # caller doesn't retain the oversized allocation.
            return b.copy(proj)
        if self.activation == "sign":
            return b.where(
                proj >= 0.0,
                b.ones_like(proj),
                -b.ones_like(proj),
            )
        if self.activation == "tanh":
            return b.tanh(proj)
        return b.cos(proj)

    def _activate_dims(self, proj: Any, dims: np.ndarray) -> Any:
        # The plain activations are per-element, so the full-output path
        # applies unchanged to a column subset.
        return self._activate(proj)

    # --------------------------------------------------------- regeneration

    def encode_dims(self, X: Any, dims: np.ndarray) -> Any:
        """Encode only the selected output dimensions (``(n, len(dims))``).

        Runs the chain for just the blocks the selected slots live in, so
        refreshing a few regenerated columns never pays for all ``nb``
        blocks.
        """
        dims = self._check_dims(dims)
        X = self._check_input(X)
        b = self.backend
        if dims.size == 0:
            return b.zeros((X.shape[0], 0), dtype=self.dtype)
        m = self.block
        slots = self.src_slots[dims]
        blocks = np.unique(slots // m)
        flat = self._chain(
            X, b.take_rows(self.signs, blocks), int(blocks.size)
        )
        cols = np.searchsorted(blocks, slots // m) * m + slots % m
        proj = b.take_columns(flat, cols)
        proj *= b.take_rows(self.scales, dims)
        return self._activate_dims(proj, dims)

    def regenerate(self, dims: np.ndarray) -> None:
        """Redraw source slots and scales for the given output dimensions."""
        dims = self._check_dims(dims)
        if dims.size == 0:
            return
        b = self.backend
        self.src_slots[dims] = self._rng.integers(
            0, self._n_slots, size=dims.size
        )
        self._identity_slots = False
        b.set_rows(
            self.scales,
            dims,
            b.asarray(self._draw_scales(int(dims.size)), dtype=self.dtype),
        )
        self.regenerated_count += int(dims.size)

    def effective_dim(self) -> int:
        """Paper's effective dimensionality ``D* = D + total regenerated``."""
        return self.dim + self.regenerated_count


class FastfoodRBFEncoder(StructuredProjectionEncoder):
    """SORF-chain counterpart of :class:`RBFEncoder`.

    Applies the same random-Fourier map ``h = cos(y + c) · sin(y)`` as the
    dense RBF encoder, with ``y`` produced by the structured chain instead
    of a ``(D, q)`` matmul — computed in place as ``(sin(2y + c) − sin c) / 2``
    by the shared :func:`~repro.hdc.encoders.rbf.rff_activate`, so encoding
    pays one transcendental pass instead of two plus a product.

    Parameters match :class:`~repro.hdc.encoders.rbf.RBFEncoder`:
    ``bandwidth`` is the kernel-width knob (``σ = bandwidth/√q``).
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
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = float(bandwidth)
        super().__init__(
            n_features,
            dim,
            activation="linear",
            seed=seed,
            dtype=dtype,
            backend=backend,
        )
        b = self.backend
        # Phases are drawn after the signs/scales (fixed documented order so
        # same-seed encoders stay bit-identical across backends).
        self.phases = b.draw_uniform(
            self._rng, 0.0, 2.0 * np.pi, self.dim, self.dtype
        )

    def _sigma(self) -> float:
        return self.bandwidth / np.sqrt(self.n_features)

    def _activate(self, proj: Any) -> Any:
        # proj may be a view into the (n, nb·m) work buffer; proj + proj is
        # then the one fresh (n, D) array, and doubling is exact.
        return rff_activate(proj + proj, self.phases)

    def _activate_dims(self, proj: Any, dims: np.ndarray) -> Any:
        # proj is a fresh column gather here, so it is doubled in place.
        proj += proj
        return rff_activate(proj, self.backend.take_rows(self.phases, dims))

    def regenerate(self, dims: np.ndarray) -> None:
        """Redraw slots, scales and phases for the given output dimensions."""
        dims = self._check_dims(dims)
        if dims.size == 0:
            return
        super().regenerate(dims)
        b = self.backend
        fresh = b.draw_uniform(
            self._rng, 0.0, 2.0 * np.pi, dims.size, self.dtype
        )
        b.set_rows(self.phases, dims, fresh)
