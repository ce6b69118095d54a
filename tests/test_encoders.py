"""Tests for the encoder family (RBF, projection, ID-level, n-gram)."""

import copy
import tracemalloc

import numpy as np
import pytest

from repro.hdc.encoders import (
    FastfoodRBFEncoder,
    IDLevelEncoder,
    NGramEncoder,
    RandomProjectionEncoder,
    RBFEncoder,
    make_encoder,
)

#: Allowed gap between the encoder's product-to-sum form and the literal
#: cos·sin reference: float rounding of the ``2p + c`` argument and of the
#: two products, per compute dtype.
RBF_ATOL = {np.float32: 2e-6, np.float64: 1e-12}


@pytest.fixture
def features(rng):
    return rng.normal(size=(10, 6))


def cos_sin_reference(X, base_vectors, phases):
    """The §III-C formula written out: ``cos(B·F + c) * sin(B·F)``."""
    proj = X @ base_vectors.T
    return np.cos(proj + phases) * np.sin(proj)


class CosSinRBFEncoder(RBFEncoder):
    """An RBF encoder that computes the literal cos·sin product."""

    def _encode(self, X):
        return cos_sin_reference(X, self.base_vectors, self.phases)


class TestRBFEncoder:
    def test_output_shape_and_range(self, features):
        enc = RBFEncoder(6, 32, seed=0)
        out = enc.encode(features)
        assert out.shape == (10, 32)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_deterministic(self, features):
        a = RBFEncoder(6, 32, seed=5).encode(features)
        b = RBFEncoder(6, 32, seed=5).encode(features)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_formula(self, features, dtype):
        """h_i = cos(B_i·F + c_i) * sin(B_i·F), §III-C, to float rounding."""
        enc = RBFEncoder(6, 64, seed=1, dtype=dtype)
        X = features.astype(dtype)
        got = enc.encode(X)
        assert got.dtype == dtype
        expected = cos_sin_reference(X, enc.base_vectors, enc.phases)
        np.testing.assert_allclose(got, expected, rtol=0, atol=RBF_ATOL[dtype])

    def test_projection_scaled_by_sqrt_features(self):
        enc = RBFEncoder(400, 5000, seed=0, bandwidth=1.0)
        assert enc.base_vectors.std() == pytest.approx(1.0 / 20.0, rel=0.05)

    def test_regenerate_changes_only_selected(self, features):
        enc = RBFEncoder(6, 32, seed=2)
        before = enc.encode(features)
        dims = np.array([3, 10, 31])
        enc.regenerate(dims)
        after = enc.encode(features)
        unchanged = np.setdiff1d(np.arange(32), dims)
        assert np.array_equal(before[:, unchanged], after[:, unchanged])
        assert not np.allclose(before[:, dims], after[:, dims])

    def test_regenerate_counts(self):
        enc = RBFEncoder(4, 16, seed=0)
        assert enc.effective_dim() == 16
        enc.regenerate(np.array([0, 1]))
        enc.regenerate(np.array([2]))
        assert enc.regenerated_count == 3
        assert enc.effective_dim() == 19

    def test_regenerate_empty_noop(self, features):
        enc = RBFEncoder(6, 8, seed=0)
        before = enc.encode(features)
        enc.regenerate(np.array([], dtype=np.int64))
        assert np.array_equal(before, enc.encode(features))
        assert enc.regenerated_count == 0

    def test_regenerate_out_of_range(self):
        enc = RBFEncoder(4, 8, seed=0)
        with pytest.raises(ValueError, match="dimension indices"):
            enc.regenerate(np.array([8]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encode_dims_matches_full(self, features, dtype):
        enc = RBFEncoder(6, 32, seed=3, dtype=dtype)
        X = features.astype(dtype)
        dims = np.array([0, 5, 17])
        got = enc.encode_dims(X, dims)
        atol = RBF_ATOL[dtype]
        np.testing.assert_allclose(got, enc.encode(X)[:, dims], rtol=0, atol=atol)
        expected = cos_sin_reference(X, enc.base_vectors[dims], enc.phases[dims])
        np.testing.assert_allclose(got, expected, rtol=0, atol=atol)

    def test_encode_dims_empty(self, features):
        enc = RBFEncoder(6, 8, seed=0)
        assert enc.encode_dims(features, np.array([], dtype=np.int64)).shape == (10, 0)

    @pytest.mark.parametrize(
        "dims", [None, np.arange(500)], ids=["encode", "encode_dims"]
    )
    def test_encoding_allocates_only_its_output(self, rng, dims):
        """encode / encode_dims write the activation into the GEMM output:
        the traced peak stays within 1.5x the returned array's bytes."""
        enc = RBFEncoder(20, 2048, seed=0, dtype="float32")
        X = rng.normal(size=(400, 20)).astype(np.float32)
        tracemalloc.start()
        try:
            out = enc.encode(X) if dims is None else enc.encode_dims(X, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes

    def test_encode_leaves_input_unchanged(self, rng):
        # A float32 input reaches _encode as the caller's own array.
        enc = RBFEncoder(6, 64, seed=0, dtype="float32")
        X = rng.normal(size=(10, 6)).astype(np.float32)
        before = X.copy()
        enc.encode(X)
        enc.encode_dims(X, np.array([1, 40]))
        np.testing.assert_array_equal(X, before)

    def test_feature_count_enforced(self):
        enc = RBFEncoder(6, 8, seed=0)
        with pytest.raises(ValueError, match="features"):
            enc.encode(np.ones((2, 7)))

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            RBFEncoder(4, 8, bandwidth=0.0)

    def test_callable(self, features):
        enc = RBFEncoder(6, 8, seed=0)
        assert np.array_equal(enc(features), enc.encode(features))


EMPTY_DIMS_ENCODERS = {
    "rbf": lambda: RBFEncoder(6, 16, seed=0),
    "fastfood-rbf": lambda: FastfoodRBFEncoder(6, 16, seed=0),
    "structured-tanh": lambda: make_encoder("structured-tanh", 6, 16, seed=0),
    "projection-cos": lambda: make_encoder("projection-cos", 6, 16, seed=0),
}


@pytest.mark.parametrize("name", sorted(EMPTY_DIMS_ENCODERS))
class TestEncodeDimsEmpty:
    """An empty ``dims`` still validates ``X`` and returns ``(n, 0)``."""

    def test_one_sample_is_one_row(self, name):
        enc = EMPTY_DIMS_ENCODERS[name]()
        out = enc.encode_dims(np.ones(6), np.array([], dtype=np.int64))
        assert out.shape == (1, 0)
        assert enc.encode_dims(np.ones(6), [3]).shape == (1, 1)

    def test_wrong_width_rejected(self, name):
        enc = EMPTY_DIMS_ENCODERS[name]()
        with pytest.raises(ValueError, match="features"):
            enc.encode_dims(np.ones((2, 7)), np.array([], dtype=np.int64))

    def test_non_finite_rejected(self, name):
        enc = EMPTY_DIMS_ENCODERS[name]()
        X = np.ones((2, 6))
        X[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            enc.encode_dims(X, np.array([], dtype=np.int64))


class TestRBFPredictionParity:
    """Float and packed 1-bit predictions equal those of copies whose
    encoder computes the literal cos·sin product."""

    def test_float_and_packed_predictions_match_cos_sin(self, medium_problem):
        from repro import make_model
        from repro.deploy import QuantizedHDCModel

        train_x, train_y, test_x, _ = medium_problem
        clf = make_model("disthd", dim=1024, iterations=4, seed=3)
        clf.fit(train_x, train_y)
        reference = copy.deepcopy(clf)
        reference.encoder_.__class__ = CosSinRBFEncoder
        np.testing.assert_array_equal(
            clf.predict(test_x), reference.predict(test_x)
        )
        packed = QuantizedHDCModel(clf, bits=1, packed=True)
        packed_ref = QuantizedHDCModel(reference, bits=1, packed=True)
        assert type(packed_ref.encoder) is CosSinRBFEncoder
        np.testing.assert_array_equal(
            packed.predict(test_x), packed_ref.predict(test_x)
        )


class TestRandomProjectionEncoder:
    def test_linear_matches_matmul(self, features):
        enc = RandomProjectionEncoder(6, 16, seed=0)
        assert np.allclose(enc.encode(features), features @ enc.base_vectors.T)

    def test_sign_is_bipolar(self, features):
        enc = RandomProjectionEncoder(6, 16, activation="sign", seed=0)
        out = enc.encode(features)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_sign_zero_maps_positive(self):
        enc = RandomProjectionEncoder(2, 4, activation="sign", seed=0)
        enc.base_vectors[:] = 0.0
        assert np.all(enc.encode(np.ones((1, 2))) == 1.0)

    def test_tanh_bounded(self, features):
        out = RandomProjectionEncoder(6, 16, activation="tanh", seed=0).encode(features)
        assert np.all(np.abs(out) < 1.0)

    def test_cos_bounded(self, features):
        out = RandomProjectionEncoder(6, 16, activation="cos", seed=0).encode(features)
        assert np.all(np.abs(out) <= 1.0)

    def test_bad_activation(self):
        with pytest.raises(ValueError, match="activation"):
            RandomProjectionEncoder(4, 8, activation="relu")

    def test_regenerate(self, features):
        enc = RandomProjectionEncoder(6, 16, seed=0)
        before = enc.encode(features)
        enc.regenerate(np.array([2]))
        after = enc.encode(features)
        assert not np.allclose(before[:, 2], after[:, 2])
        assert np.array_equal(np.delete(before, 2, axis=1), np.delete(after, 2, axis=1))


class TestIDLevelEncoder:
    def test_shape(self, features):
        enc = IDLevelEncoder(6, 64, seed=0)
        assert enc.encode(features).shape == (10, 64)

    def test_quantize_range(self):
        enc = IDLevelEncoder(2, 16, n_levels=4, feature_range=(0.0, 1.0), seed=0)
        levels = enc.quantize(np.array([[-1.0, 0.0], [0.5, 2.0]]))
        assert levels.min() >= 0 and levels.max() <= 3
        assert levels[0, 0] == 0  # clipped below
        assert levels[1, 1] == 3  # clipped above

    def test_similar_inputs_similar_codes(self):
        enc = IDLevelEncoder(4, 2048, n_levels=16, seed=1)
        a = enc.encode(np.full((1, 4), 0.1))
        b = enc.encode(np.full((1, 4), 0.15))
        c = enc.encode(np.full((1, 4), 2.9))
        sim_ab = float((a @ b.T)[0, 0]) / (np.linalg.norm(a) * np.linalg.norm(b))
        sim_ac = float((a @ c.T)[0, 0]) / (np.linalg.norm(a) * np.linalg.norm(c))
        assert sim_ab > sim_ac

    def test_bad_levels(self):
        with pytest.raises(ValueError, match="n_levels"):
            IDLevelEncoder(4, 8, n_levels=1)

    def test_bad_range(self):
        with pytest.raises(ValueError, match="feature_range"):
            IDLevelEncoder(4, 8, feature_range=(1.0, 1.0))


class TestNGramEncoder:
    def test_shape(self):
        enc = NGramEncoder(5, 128, n=2, seed=0)
        out = enc.encode([[0, 1, 2], [3, 4]])
        assert out.shape == (2, 128)

    def test_sequence_shorter_than_n(self):
        enc = NGramEncoder(5, 64, n=3, seed=0)
        out = enc.encode_sequence([2])
        assert np.array_equal(out, enc.symbol_vectors[2].astype(float))

    def test_order_sensitivity(self):
        enc = NGramEncoder(4, 2048, n=2, seed=1)
        ab = enc.encode_sequence([0, 1])
        ba = enc.encode_sequence([1, 0])
        cos = float(ab @ ba) / (np.linalg.norm(ab) * np.linalg.norm(ba))
        assert cos < 0.5  # order matters

    def test_shared_grams_increase_similarity(self):
        enc = NGramEncoder(6, 4096, n=2, seed=2)
        a = enc.encode_sequence([0, 1, 2, 3])
        b = enc.encode_sequence([0, 1, 2, 4])
        c = enc.encode_sequence([5, 4, 3, 5])
        sim_ab = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        sim_ac = float(a @ c) / (np.linalg.norm(a) * np.linalg.norm(c))
        assert sim_ab > sim_ac

    def test_empty_sequence_rejected(self):
        enc = NGramEncoder(3, 16, seed=0)
        with pytest.raises(ValueError, match="empty"):
            enc.encode_sequence([])

    def test_symbol_out_of_range(self):
        enc = NGramEncoder(3, 16, seed=0)
        with pytest.raises(ValueError, match="symbols"):
            enc.encode_sequence([0, 3])

    def test_empty_batch_rejected(self):
        enc = NGramEncoder(3, 16, seed=0)
        with pytest.raises(ValueError, match="empty"):
            enc.encode([])
