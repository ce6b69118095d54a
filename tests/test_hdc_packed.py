"""Property tests for repro.hdc.packed and the packed backend kernels.

The packed path promises *exact* equivalence, not approximation: every
packed Hamming score must be bit-identical to the unpacked binary scorer
it replaces, across dimensions that exercise the padding contract
(D % 64 == 0, D % 64 != 0, D < 64), input dtypes, chunk sizes, both
popcount implementations, and the NumPy backend's tuned kernel against
the base class's reference.
"""

import numpy as np
import pytest

import repro.backend.base as window_rule
from repro.backend import get_backend
from repro.hdc import packed
from repro.hdc.ops import (
    hamming_similarity,
    pack_hypervectors,
    packed_hamming_similarity,
    unpack_hypervectors,
)

DIMS = (64, 100, 4096)


def _rand_bipolar(rng, n, dim, dtype=np.float64):
    return rng.choice(np.asarray([-1.0, 1.0], dtype=dtype), size=(n, dim))


def _reference_scores(q, m):
    """Unpacked binary scorer: (D - 2*hamming) / D on the >= 0 signs."""
    qb = (np.asarray(q) >= 0).astype(np.int64)
    mb = (np.asarray(m) >= 0).astype(np.int64)
    counts = (qb[:, None, :] != mb[None, :, :]).sum(axis=2)
    dim = np.float64(q.shape[-1])
    return (dim - 2.0 * counts.astype(np.float64)) / dim


# ---------------------------------------------------------------- primitives


class TestPackUnpack:
    @pytest.mark.parametrize("dim", (1, 63, 64, 65, 100, 4096))
    def test_roundtrip(self, dim):
        rng = np.random.default_rng(dim)
        x = _rand_bipolar(rng, 7, dim)
        words = packed.pack_sign_rows(x)
        assert words.dtype == np.uint64
        assert words.shape == (7, packed.words_per_row(dim))
        bits = unpack_hypervectors(words, dim)
        np.testing.assert_array_equal(bits, (x >= 0).astype(np.uint8))

    @pytest.mark.parametrize("dim", (1, 63, 65, 100))
    def test_pad_bits_are_zero(self, dim):
        rng = np.random.default_rng(dim)
        words = packed.pack_sign_rows(_rand_bipolar(rng, 5, dim))
        # Zero out the payload; any surviving set bit lives in the pad.
        payload = packed.pack_bool_rows(np.ones((5, dim), dtype=bool))
        assert not np.any(words & ~payload)

    def test_packed_nbytes(self):
        assert packed.packed_nbytes(3, 100) == 3 * 2 * 8
        assert packed.packed_nbytes(1, 64) == 8

    @pytest.mark.parametrize(
        "dtype", (np.float32, np.float64, np.int8, np.int64)
    )
    def test_dtype_invariance(self, dtype):
        rng = np.random.default_rng(3)
        x = _rand_bipolar(rng, 4, 100).astype(dtype)
        np.testing.assert_array_equal(
            packed.pack_sign_rows(x),
            packed.pack_sign_rows(x.astype(np.float64)),
        )

    def test_code_rows_match_sign_rows(self):
        rng = np.random.default_rng(4)
        x = _rand_bipolar(rng, 6, 100)
        codes = (x >= 0).astype(np.uint8)
        np.testing.assert_array_equal(
            packed.pack_code_rows(codes), packed.pack_sign_rows(x)
        )


class TestPopcount:
    def test_lut_matches_native(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64, size=(5, 7), dtype=np.uint64)
        np.testing.assert_array_equal(
            packed.popcount_words_lut(words),
            packed.popcount_words_native(words),
        )

    def test_import_time_selection(self):
        expected = (
            packed.popcount_words_native
            if packed.HAS_BITWISE_COUNT
            else packed.popcount_words_lut
        )
        assert packed.popcount_words is expected

    @pytest.mark.parametrize("dim", DIMS)
    def test_forced_lut_fallback_scores_identical(self, monkeypatch, dim):
        """NumPy<2.0 regression stand-in: force the LUT and require
        bit-identical scores from every packed entry point."""
        rng = np.random.default_rng(dim)
        q, m = _rand_bipolar(rng, 9, dim), _rand_bipolar(rng, 4, dim)
        qw, mw = packed.pack_sign_rows(q), packed.pack_sign_rows(m)
        native = packed.hamming_scores_packed(qw, mw, dim)
        native_tuned = get_backend("numpy").hamming_scores_packed(qw, mw, dim)
        monkeypatch.setattr(packed, "popcount_words", packed.popcount_words_lut)
        np.testing.assert_array_equal(
            packed.hamming_scores_packed(qw, mw, dim), native
        )
        np.testing.assert_array_equal(
            get_backend("numpy").hamming_scores_packed(qw, mw, dim),
            native_tuned,
        )
        np.testing.assert_array_equal(native, native_tuned)


# ------------------------------------------------------------------ scoring


class TestPackedScores:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_matches_unpacked_reference(self, dim, dtype):
        rng = np.random.default_rng(dim)
        q = _rand_bipolar(rng, 11, dim, dtype)
        m = _rand_bipolar(rng, 5, dim, dtype)
        scores = packed_hamming_similarity(
            pack_hypervectors(q), pack_hypervectors(m), dim
        )
        np.testing.assert_array_equal(scores, _reference_scores(q, m))

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("chunk_size", (1, 3, 64, None))
    def test_chunk_size_invariance(self, dim, chunk_size, monkeypatch):
        """The NumPy kernel's XOR scratch chunks (``None``: the default
        rule, one chunk here) score as the reference's whole batch."""
        rng = np.random.default_rng(dim + 1)
        qw = packed.pack_sign_rows(_rand_bipolar(rng, 10, dim))
        mw = packed.pack_sign_rows(_rand_bipolar(rng, 4, dim))
        full = packed.hamming_scores_packed(qw, mw, dim)
        if chunk_size is not None:
            monkeypatch.setattr(
                window_rule, "auto_chunk_rows", lambda dim: chunk_size
            )
        np.testing.assert_array_equal(
            get_backend("numpy").hamming_scores_packed(qw, mw, dim), full
        )

    def test_matches_dense_hamming_similarity(self):
        """Packed scores relate affinely to the routed dense op:
        sim_packed = 2 * hamming_similarity - 1 on binarised inputs."""
        rng = np.random.default_rng(9)
        q, m = _rand_bipolar(rng, 8, 100), _rand_bipolar(rng, 3, 100)
        dense = hamming_similarity((q >= 0).astype(np.int8), (m >= 0).astype(np.int8))
        scores = packed_hamming_similarity(
            pack_hypervectors(q), pack_hypervectors(m), 100
        )
        np.testing.assert_allclose(scores, 2.0 * dense - 1.0, atol=1e-12)

    def test_identical_rows_score_one(self):
        rng = np.random.default_rng(2)
        x = _rand_bipolar(rng, 3, 100)
        scores = packed_hamming_similarity(
            pack_hypervectors(x), pack_hypervectors(x), 100
        )
        np.testing.assert_array_equal(np.diag(scores), np.ones(3))
        opposite = packed_hamming_similarity(
            pack_hypervectors(x), pack_hypervectors(-x), 100
        )
        np.testing.assert_array_equal(np.diag(opposite), -np.ones(3))

    def test_word_count_mismatch_raises(self):
        qw = np.zeros((2, 2), dtype=np.uint64)
        mw = np.zeros((3, 3), dtype=np.uint64)
        with pytest.raises(ValueError, match="word"):
            get_backend("numpy").hamming_scores_packed(qw, mw, 100)


# ------------------------------------------------------------------ backends


class TestBackendCapability:
    @pytest.mark.parametrize("dim", DIMS)
    def test_generic_equals_tuned(self, dim):
        from repro.backend.base import ArrayBackend

        rng = np.random.default_rng(dim + 2)
        q, m = _rand_bipolar(rng, 7, dim), _rand_bipolar(rng, 3, dim)
        backend = get_backend("numpy")
        qw, mw = backend.packbits_rows(q), backend.packbits_rows(m)
        np.testing.assert_array_equal(
            ArrayBackend.hamming_scores_packed(backend, qw, mw, dim),
            backend.hamming_scores_packed(qw, mw, dim),
        )


# -------------------------------------------------------------- bit flipping


class TestFlipPackedBits:
    @pytest.mark.parametrize("dim", (63, 64, 100))
    def test_exact_flip_count(self, dim):
        rng = np.random.default_rng(dim)
        words = packed.pack_sign_rows(_rand_bipolar(rng, 6, dim))
        before = unpack_hypervectors(words, dim).copy()
        n = packed.flip_packed_bits(words, 17, dim, np.random.default_rng(0))
        assert n == 17
        after = unpack_hypervectors(words, dim)
        assert int((before != after).sum()) == 17

    def test_pad_bits_survive_flips(self):
        dim = 100
        rng = np.random.default_rng(5)
        words = packed.pack_sign_rows(_rand_bipolar(rng, 4, dim))
        packed.flip_packed_bits(words, 150, dim, np.random.default_rng(1))
        payload = packed.pack_bool_rows(np.ones((4, dim), dtype=bool))
        assert not np.any(words & ~payload)

    def test_zero_flips_is_identity(self):
        words = packed.pack_sign_rows(np.ones((2, 64)))
        before = words.copy()
        assert packed.flip_packed_bits(
            words, 0, 64, np.random.default_rng(0)
        ) == 0
        np.testing.assert_array_equal(words, before)

    def test_flips_are_distinct_cells(self):
        # Flipping all cells once turns every bit; XOR twice would not.
        dim = 64
        words = packed.pack_sign_rows(np.ones((1, dim)))
        before = unpack_hypervectors(words, dim).copy()
        packed.flip_packed_bits(words, dim, dim, np.random.default_rng(2))
        np.testing.assert_array_equal(
            unpack_hypervectors(words, dim), 1 - before
        )
