"""Tests for repro.backend — the pluggable array-compute layer."""

import numpy as np
import pytest

from repro.backend import (
    NumpyBackend,
    get_backend,
    list_backends,
    resolve_dtype,
)
from repro.hdc.memory import AssociativeMemory


class TestRegistry:
    def test_numpy_always_registered(self):
        assert "numpy" in list_backends()

    def test_default_is_numpy(self):
        assert get_backend(None).name == "numpy"
        assert get_backend("numpy") is get_backend(None)

    def test_case_insensitive_lookup(self):
        assert get_backend("NumPy") is get_backend("numpy")

    def test_instance_passthrough(self):
        b = NumpyBackend()
        assert get_backend(b) is b

    def test_unknown_backend(self):
        with pytest.raises(
            KeyError, match="unknown backend 'tensorflow'.*\\['numpy'\\]"
        ):
            get_backend("tensorflow")

    def test_bad_spec_type(self):
        with pytest.raises(TypeError, match="backend"):
            get_backend(42)


class TestResolveDtype:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("float32", np.float32),
            ("Float64", np.float64),
            ("f32", np.float32),
            (np.float32, np.float32),
            (None, np.float64),
        ],
    )
    def test_aliases(self, spec, expected):
        assert resolve_dtype(spec) == np.dtype(expected)

    def test_unknown_string(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            resolve_dtype("float16ish")


class TestNumpyBackendOps:
    @pytest.fixture
    def b(self):
        return get_backend("numpy")

    def test_matmul_and_transpose(self, b):
        a = np.arange(6.0).reshape(2, 3)
        c = np.arange(12.0).reshape(4, 3)
        assert np.allclose(b.matmul(a, b.transpose(c)), a @ c.T)

    def test_cosine_matches_reference(self, b):
        rng = np.random.default_rng(0)
        Q = rng.normal(size=(5, 16))
        M = rng.normal(size=(3, 16))
        ref = (Q @ M.T) / np.outer(
            np.linalg.norm(Q, axis=1), np.linalg.norm(M, axis=1)
        )
        assert np.allclose(b.cosine_similarity(Q, M), ref)

    def test_cosine_zero_vector_convention(self, b):
        Q = np.zeros((1, 4))
        M = np.eye(2, 4)
        assert np.array_equal(b.cosine_similarity(Q, M), np.zeros((1, 2)))

    def test_roll(self, b):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(b.roll(v, 1), [3.0, 1.0, 2.0])

    def test_scatter_add_rows_duplicates(self, b):
        target = np.zeros((3, 2))
        b.scatter_add_rows(
            target, np.array([0, 0, 2]), np.ones((3, 2))
        )
        assert np.array_equal(target, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_scatter_add_rows_matmul_path_matches_ufunc(self, b):
        """The one-hot fast path must equal np.add.at up to fp tolerance."""
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 4, size=100)
        values = rng.normal(size=(100, 8))
        fast = np.zeros((4, 8))
        ref = np.zeros((4, 8))
        b.scatter_add_rows(fast, idx, values)  # idx.size > rows → matmul
        np.add.at(ref, idx, values)
        assert np.allclose(fast, ref)

    def test_scatter_add_cells(self, b):
        target = np.zeros((3, 4))
        rows = np.array([0, 2, 0])
        cols = np.array([1, 3])
        values = np.ones((3, 2))
        b.scatter_add_cells(target, rows, cols, values)
        assert target[0, 1] == 2.0 and target[0, 3] == 2.0
        assert target[2, 1] == 1.0 and target[2, 3] == 1.0
        assert target.sum() == 6.0

    def test_topk_desc_sorted(self, b):
        scores = np.array([[0.1, 0.9, 0.5, 0.3]])
        idx, vals = b.topk_desc(scores, 3)
        assert np.array_equal(idx[0], [1, 2, 3])
        assert np.array_equal(vals[0], [0.9, 0.5, 0.3])

    def test_topk_desc_matches_argsort(self, b):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(20, 11))
        idx, _ = b.topk_desc(scores, 4)
        ref = np.argsort(-scores, axis=1)[:, :4]
        assert np.array_equal(idx, ref)

    def test_rng_draws_match_numpy(self, b):
        a = b.draw_normal(np.random.default_rng(7), 0.0, 1.0, (3, 4), np.float32)
        ref = np.random.default_rng(7).normal(0.0, 1.0, size=(3, 4))
        assert a.dtype == np.float32
        assert np.allclose(a, ref.astype(np.float32))

    def test_to_numpy_zero_copy(self, b):
        x = np.ones(3)
        assert b.to_numpy(x) is x


class TestMemoryBackendThreading:
    def test_memory_dtype(self):
        mem = AssociativeMemory(3, 8, dtype="float32")
        assert mem.vectors.dtype == np.float32
        mem.accumulate(np.ones((2, 8)), [0, 1])
        assert mem.vectors.dtype == np.float32

    def test_default_dtype_stays_float64(self):
        assert AssociativeMemory(2, 4).vectors.dtype == np.float64

    def test_set_vectors_casts(self):
        mem = AssociativeMemory(2, 4, dtype="float32")
        mem.set_vectors(np.ones((2, 4), dtype=np.float64))
        assert mem.vectors.dtype == np.float32

    def test_set_vectors_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            AssociativeMemory(2, 4).set_vectors(np.ones((3, 4)))

    def test_similarities_always_float64(self):
        mem = AssociativeMemory(2, 4, dtype="float32")
        mem.accumulate(np.eye(2, 4, dtype=np.float32), [0, 1])
        sims = mem.similarities(np.ones((3, 4), dtype=np.float32))
        assert sims.dtype == np.float64

    def test_custom_backend_threads_through(self):
        class Tagged(NumpyBackend):
            name = "tagged-test"

        b = Tagged()
        mem = AssociativeMemory(2, 4, backend=b)
        assert mem.backend is b
        assert mem.copy().backend is b


class TestModelBackendThreading:
    def test_disthd_defaults_to_float32(self):
        from repro import make_model

        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 5))
        y = np.arange(60) % 3
        clf = make_model("disthd", dim=64, iterations=3, seed=0)
        clf.fit(X, y)
        assert clf.encoder_.base_vectors.dtype == np.float32
        assert clf.memory_.vectors.dtype == np.float32
        assert clf.predict(X).dtype.kind in "iu"

    def test_disthd_float64_opt_in(self):
        from repro import make_model

        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 5))
        y = np.arange(60) % 3
        clf = make_model("disthd", dim=64, iterations=3, seed=0, dtype="float64")
        clf.fit(X, y)
        assert clf.memory_.vectors.dtype == np.float64

    def test_dtype_does_not_change_predictions_here(self):
        from repro import make_model

        rng = np.random.default_rng(1)
        X = rng.normal(size=(90, 6))
        y = np.arange(90) % 3
        a = make_model("disthd", dim=128, iterations=4, seed=0).fit(X, y)
        b = make_model(
            "disthd", dim=128, iterations=4, seed=0, dtype="float64"
        ).fit(X, y)
        # Same seeds → same encoder parameters (up to rounding); on a
        # well-separated problem the precision change must not flip labels.
        agree = np.mean(a.predict(X) == b.predict(X))
        assert agree > 0.95

    def test_config_rejects_unknown_backend(self):
        from repro.core.config import DistHDConfig

        with pytest.raises(KeyError, match="unknown backend"):
            DistHDConfig(backend="not-a-backend")

    def test_config_rejects_unknown_dtype(self):
        from repro.core.config import DistHDConfig

        with pytest.raises(ValueError, match="unknown dtype"):
            DistHDConfig(dtype="float7")

    def test_experiment_spec_threads_backend_dtype(self):
        from repro.api import run_experiment

        result = run_experiment(
            model="disthd", dataset="diabetes", scale=0.01, seed=0,
            model_params={"dim": 32, "iterations": 2},
            dtype="float64", backend="numpy",
        )
        assert result.test_accuracy >= 0.0

    def test_baselines_default_float32(self):
        from repro import make_model

        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = np.arange(40) % 2
        for name in ("onlinehd", "neuralhd"):
            clf = make_model(name, dim=32, iterations=2, seed=0)
            clf.fit(X, y)
            assert clf.memory_.vectors.dtype == np.float32, name
