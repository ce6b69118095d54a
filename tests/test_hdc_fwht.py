"""Tests for the fast Walsh–Hadamard transform kernel (repro.hdc.fwht)."""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.hdc.fwht import (
    fwht_rows,
    fwht_rows_inplace,
    hadamard_matrix,
    is_pow2,
    next_pow2,
)

class TestPow2Helpers:
    def test_is_pow2(self):
        assert [n for n in range(1, 20) if is_pow2(n)] == [1, 2, 4, 8, 16]
        assert not is_pow2(0)
        assert not is_pow2(-4)

    def test_next_pow2(self):
        assert next_pow2(1) == 1
        assert next_pow2(2) == 2
        assert next_pow2(3) == 4
        assert next_pow2(561) == 1024
        assert next_pow2(1024) == 1024

    def test_next_pow2_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_pow2(0)


class TestHadamardMatrix:
    def test_sylvester_structure(self):
        H = hadamard_matrix(4)
        expected = np.array(
            [
                [1, 1, 1, 1],
                [1, -1, 1, -1],
                [1, 1, -1, -1],
                [1, -1, -1, 1],
            ],
            dtype=np.float64,
        )
        assert np.array_equal(H, expected)

    def test_orthogonality(self):
        H = hadamard_matrix(16)
        assert np.array_equal(H @ H, 16 * np.eye(16))

    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            hadamard_matrix(12)


class TestFWHTExactness:
    @pytest.mark.parametrize(
        "m", [1, 2, 4, 8, 16, 64, 128, 256, 512, 1024, 4096]
    )
    def test_bit_identical_to_naive_on_integers(self, m, rng):
        """Integer-valued float64 inputs: every intermediate is an integer,
        so the fast transform must equal x @ H bit for bit."""
        x = rng.integers(-8, 9, size=(7, m)).astype(np.float64)
        H = hadamard_matrix(m)
        assert np.array_equal(fwht_rows(x), x @ H)

    @pytest.mark.parametrize("m", [8, 128, 1024])
    def test_float32_within_scale_aware_bound(self, m, rng):
        x = rng.normal(size=(9, m)).astype(np.float32)
        ref = x.astype(np.float64) @ hadamard_matrix(m)
        err = np.max(np.abs(fwht_rows(x).astype(np.float64) - ref))
        tol = np.finfo(np.float32).eps * m * max(1.0, np.max(np.abs(ref)))
        assert err <= tol

    def test_involution_up_to_m(self, rng):
        """H @ H == m·I, so transforming twice recovers m·x exactly on
        integer inputs."""
        m = 256
        x = rng.integers(-4, 5, size=(5, m)).astype(np.float64)
        assert np.array_equal(fwht_rows(fwht_rows(x)), m * x)

    def test_one_dimensional_input(self, rng):
        x = rng.integers(-4, 5, size=64).astype(np.float64)
        out = fwht_rows(x)
        assert out.shape == (64,)
        assert np.array_equal(out, x @ hadamard_matrix(64))

    def test_integer_dtype_promoted_to_float64(self, rng):
        x = rng.integers(-4, 5, size=(3, 32))
        out = fwht_rows(x)
        assert out.dtype == np.float64
        assert np.array_equal(out, x.astype(np.float64) @ hadamard_matrix(32))


class TestRowCountInvariance:
    @pytest.mark.parametrize("m", [64, 1024, 4096])
    def test_single_row_matches_batch(self, m, rng):
        """BLAS must not round a lone row differently than the same row
        inside a batch — the chunked-encode / shard-determinism invariant."""
        x = rng.normal(size=(17, m)).astype(np.float32)
        whole = fwht_rows(x)
        for i in (0, 7, 16):
            assert np.array_equal(fwht_rows(x[i]), whole[i])

    def test_arbitrary_chunking_matches(self, rng):
        m = 512
        x = rng.normal(size=(13, m)).astype(np.float32)
        whole = fwht_rows(x)
        for chunk in (1, 2, 3, 5, 13):
            assert np.array_equal(fwht_rows(x, chunk_rows=chunk), whole)


class TestInPlace:
    def test_overwrites_and_returns_input(self, rng):
        x = rng.integers(-4, 5, size=(4, 64)).astype(np.float64)
        expected = x @ hadamard_matrix(64)
        out = fwht_rows_inplace(x)
        assert out is x
        assert np.array_equal(x, expected)

    def test_trivial_sizes(self):
        x = np.ones((3, 1))
        assert fwht_rows_inplace(x) is x
        empty = np.empty((0, 8))
        assert fwht_rows_inplace(empty) is empty

    def test_rejects_non_pow2_columns(self):
        with pytest.raises(ValueError, match="power-of-two"):
            fwht_rows_inplace(np.zeros((2, 6)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            fwht_rows_inplace(np.zeros(8))

    def test_rejects_non_contiguous(self):
        x = np.zeros((4, 16))[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            fwht_rows_inplace(x)

    def test_out_of_place_leaves_input_untouched(self, rng):
        x = rng.normal(size=(3, 32))
        before = x.copy()
        fwht_rows(x)
        assert np.array_equal(x, before)


class TestBackendSeam:
    def test_numpy_backend_fwht_rows(self, rng):
        b = get_backend("numpy")
        x = rng.integers(-4, 5, size=(5, 128)).astype(np.float32)
        out = b.fwht_rows(x.copy())
        # Small integers: exact in float32 too, so the dtypes can be
        # compared value-for-value.
        ref = x.astype(np.float64) @ hadamard_matrix(128)
        assert np.array_equal(out, ref)

    def test_numpy_backend_transforms_native_input_in_place(self, rng):
        b = get_backend("numpy")
        x = rng.normal(size=(4, 64)).astype(np.float32)
        out = b.fwht_rows(x)
        assert out is x  # documented MAY-transform-in-place contract

    def test_backend_empty_shape_and_dtype(self):
        b = get_backend("numpy")
        out = b.empty((3, 5), dtype=np.float32)
        assert out.shape == (3, 5) and out.dtype == np.float32
