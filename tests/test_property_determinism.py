"""The encode determinism contract, checked at the shapes that are served.

What the code keeps (docs/performance.md, "Encode determinism"):

- a dense :class:`RBFEncoder` row encodes bit for bit alike in every row
  window of at least two rows, so chunked and unchunked encodes of such
  windows are identical;
- a lone row (chunk size 1, a one-row tail, a one-row request) goes
  through a different BLAS kernel and agrees with the same row inside a
  batch to float rounding only; its packed sign bits equal the batch's
  except at cells whose magnitude is within that rounding bound;
- the structured :class:`FastfoodRBFEncoder` fixes every GEMM's
  per-sample shape, so its rows are bit-identical at any window,
  lone rows included.

Shapes: the pamap2 (54 features) and ucihar (561) analogs at D = 4096,
the served dimensionality, at both dtypes.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc.encoders.rbf import RBFEncoder
from repro.hdc.encoders.structured import FastfoodRBFEncoder
from repro.hdc.packed import pack_sign_rows, unpack_rows

DIM = 4096
CONFIGS = [
    (kind, n_features, dtype)
    for kind in ("rbf", "fastfood")
    for n_features in (54, 561)
    for dtype in ("float32", "float64")
]
EXAMPLES = settings(max_examples=6, deadline=None)


@functools.lru_cache(maxsize=None)
def _encoder(kind, n_features, dtype):
    cls = RBFEncoder if kind == "rbf" else FastfoodRBFEncoder
    return cls(n_features, DIM, seed=11, dtype=dtype)


def _encode(encoder, X, chunk_size=None):
    return np.asarray(encoder.encode(X, chunk_size=chunk_size))


def _rows(seed, n_rows, n_features):
    return np.random.default_rng(seed).normal(size=(n_rows, n_features))


def _rounding_bound(encoder, X):
    """Per-cell bound on how far two roundings of one row's encoding may
    differ.  The pre-activation ``2x·b + φ`` is a (q + 1)-term sum; two
    summation orders differ by at most twice the textbook bound
    ``γ(q+1) · Σ|terms|``, the activation ``½[sin(·) − sin φ]`` is
    ½-Lipschitz in it, and each side rounds the activation itself within a
    few units in the last place."""
    eps = float(np.finfo(encoder.dtype).eps)
    terms = X.shape[1] + 1
    unit = eps / 2
    gamma = terms * unit / (1 - terms * unit)
    base = np.abs(np.asarray(encoder.base_vectors, dtype=np.float64))
    magnitude = np.abs(2.0 * X) @ base.T + 2.0 * np.pi
    return 2.0 * gamma * magnitude + 8.0 * eps


def _lone_rows_agree(encoder, kind, X, lone, batched):
    """``lone`` rows (encoded alone) against the same rows of a batch."""
    if kind == "fastfood":
        np.testing.assert_array_equal(lone, batched)
        return
    bound = _rounding_bound(encoder, X)
    gap = np.abs(lone.astype(np.float64) - batched)
    assert np.all(gap <= bound), float((gap - bound).max())


windows = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 24))


@pytest.mark.parametrize("kind,n_features,dtype", CONFIGS)
class TestEncodeDeterminism:
    @EXAMPLES
    @given(case=windows, data=st.data())
    def test_windows_of_two_or_more_rows_bit_identical(
        self, kind, n_features, dtype, case, data
    ):
        seed, n_rows = case
        encoder = _encoder(kind, n_features, dtype)
        X = _rows(seed, n_rows, n_features)
        full = _encode(encoder, X)
        chunk = data.draw(
            st.integers(2, n_rows).filter(lambda c: n_rows % c != 1),
            label="chunk",
        )
        np.testing.assert_array_equal(_encode(encoder, X, chunk), full)
        start = data.draw(st.integers(0, n_rows - 2), label="start")
        stop = data.draw(st.integers(start + 2, n_rows), label="stop")
        np.testing.assert_array_equal(
            _encode(encoder, X[start:stop]), full[start:stop]
        )

    @EXAMPLES
    @given(case=windows, data=st.data())
    def test_lone_rows_agree_to_rounding(
        self, kind, n_features, dtype, case, data
    ):
        seed, n_rows = case
        encoder = _encoder(kind, n_features, dtype)
        X = _rows(seed, n_rows, n_features)
        full = _encode(encoder, X)
        # Chunk size 1: every row is lone.
        _lone_rows_agree(encoder, kind, X, _encode(encoder, X, 1), full)
        # A chunk size that leaves a one-row tail: only the tail is lone.
        chunk = data.draw(
            st.sampled_from(
                [c for c in range(2, n_rows) if n_rows % c == 1] or [None]
            ),
            label="chunk",
        )
        if chunk is not None:
            chunked = _encode(encoder, X, chunk)
            np.testing.assert_array_equal(chunked[:-1], full[:-1])
            _lone_rows_agree(encoder, kind, X[-1:], chunked[-1:], full[-1:])

    @EXAMPLES
    @given(case=windows, data=st.data())
    def test_lone_row_sign_bits(self, kind, n_features, dtype, case, data):
        seed, n_rows = case
        encoder = _encoder(kind, n_features, dtype)
        X = _rows(seed, n_rows, n_features)
        full = _encode(encoder, X)
        row = data.draw(st.integers(0, n_rows - 1), label="row")
        lone = _encode(encoder, X[row:row + 1])
        flipped = unpack_rows(
            pack_sign_rows(lone) ^ pack_sign_rows(full[row:row + 1]), DIM
        ).astype(bool)
        if kind == "fastfood":
            assert not flipped.any()
            return
        bound = _rounding_bound(encoder, X[row:row + 1])
        near_zero = np.abs(full[row:row + 1]) <= bound
        assert not np.any(flipped & ~near_zero)
