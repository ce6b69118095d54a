"""Tests for repro.persistence and repro.datasets.io."""

import numpy as np
import pytest

from repro.baselines.baselinehd import BaselineHDClassifier
from repro.baselines.knn import KNNClassifier
from repro.baselines.neuralhd import NeuralHDClassifier
from repro.baselines.onlinehd import OnlineHDClassifier
from repro.core.disthd import DistHDClassifier
from repro.datasets.io import load_dataset_file, load_from_arrays, save_dataset
from repro.datasets.loaders import load_dataset
from repro.persistence import load_model, save_model


class TestModelRoundtrip:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DistHDClassifier(dim=48, iterations=3, seed=0),
            lambda: OnlineHDClassifier(dim=48, iterations=3, seed=0),
            lambda: NeuralHDClassifier(dim=48, iterations=3, seed=0),
            lambda: BaselineHDClassifier(dim=48, iterations=3, seed=0),
            lambda: BaselineHDClassifier(dim=48, iterations=3, encoder="sign", seed=0),
            lambda: BaselineHDClassifier(dim=48, iterations=3, encoder="rbf", seed=0),
        ],
        ids=["disthd", "onlinehd", "neuralhd", "basehd-idlevel", "basehd-sign",
             "basehd-rbf"],
    )
    def test_predictions_survive_roundtrip(self, factory, small_problem, tmp_path):
        train_x, train_y, test_x, _ = small_problem
        model = factory().fit(train_x, train_y)
        path = save_model(model, tmp_path / "model")
        restored = load_model(path)
        assert np.array_equal(restored.predict(test_x), model.predict(test_x))
        assert np.allclose(
            restored.decision_scores(test_x), model.decision_scores(test_x)
        )

    def test_topk_survives(self, small_problem, tmp_path):
        train_x, train_y, test_x, _ = small_problem
        model = DistHDClassifier(dim=48, iterations=3, seed=0).fit(train_x, train_y)
        restored = load_model(save_model(model, tmp_path / "m"))
        assert np.array_equal(
            restored.predict_topk(test_x, 2), model.predict_topk(test_x, 2)
        )

    def test_classes_preserved(self, small_problem, tmp_path):
        train_x, train_y, _, _ = small_problem
        remapped = np.array([5, 17, 42])[train_y]
        model = DistHDClassifier(dim=48, iterations=2, seed=0).fit(train_x, remapped)
        restored = load_model(save_model(model, tmp_path / "m"))
        assert np.array_equal(restored.classes_, [5, 17, 42])

    def test_npz_suffix_added(self, small_problem, tmp_path):
        train_x, train_y, _, _ = small_problem
        model = DistHDClassifier(dim=32, iterations=2, seed=0).fit(train_x, train_y)
        path = save_model(model, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_unsupported_model_rejected(self, tmp_path):
        class NotAModel:
            classes_ = None

        with pytest.raises(TypeError, match="save_model supports"):
            save_model(NotAModel(), tmp_path / "m")

    def test_classical_models_roundtrip(self, small_problem, tmp_path):
        from repro.baselines.mlp import MLPClassifier
        from repro.baselines.svm import LinearSVMClassifier, RFFSVMClassifier

        train_x, train_y, test_x, _ = small_problem
        factories = {
            "knn": lambda: KNNClassifier(k=3),
            "mlp": lambda: MLPClassifier(hidden_sizes=(16,), epochs=3, seed=0),
            "svm": lambda: LinearSVMClassifier(epochs=3, seed=0),
            "rff": lambda: RFFSVMClassifier(n_components=32, seed=0),
        }
        for name, factory in factories.items():
            model = factory().fit(train_x, train_y)
            restored = load_model(save_model(model, tmp_path / name))
            assert type(restored) is type(model)
            assert np.array_equal(
                restored.predict(test_x), model.predict(test_x)
            ), name
            assert np.allclose(
                restored.decision_scores(test_x), model.decision_scores(test_x)
            ), name

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="not fitted"):
            save_model(DistHDClassifier(dim=32), tmp_path / "m")

    def test_feature_mismatch_on_loaded(self, small_problem, tmp_path):
        train_x, train_y, _, _ = small_problem
        model = DistHDClassifier(dim=32, iterations=2, seed=0).fit(train_x, train_y)
        restored = load_model(save_model(model, tmp_path / "m"))
        with pytest.raises(ValueError, match="features"):
            restored.predict(np.ones((1, train_x.shape[1] + 1)))

    def test_score_works_on_loaded(self, small_problem, tmp_path):
        train_x, train_y, test_x, test_y = small_problem
        model = DistHDClassifier(dim=64, iterations=3, seed=0).fit(train_x, train_y)
        restored = load_model(save_model(model, tmp_path / "m"))
        assert restored.score(test_x, test_y) == pytest.approx(
            model.score(test_x, test_y)
        )


class TestArchivesFromRetiredBackends:
    """Archives record ``trained_backend``, and load never reads it: an
    archive written by a save under a backend this release no longer
    ships loads and scores under NumPy exactly like its source model."""

    RETIRED = "retired-gpu"

    @classmethod
    def _relabel(cls, path):
        with np.load(path, allow_pickle=False) as data:
            payload = dict(data)
        assert str(payload["trained_backend"]) == "numpy"
        payload["trained_backend"] = np.asarray(cls.RETIRED)
        np.savez_compressed(path, **payload)
        return path

    def test_disthd_and_packed_archives_load(self, small_problem, tmp_path):
        from repro.backend import get_backend
        from repro.deploy.quantized import QuantizedHDCModel, QuantizedTrainer

        with pytest.raises(KeyError):
            get_backend(self.RETIRED)
        train_x, train_y, test_x, _ = small_problem
        disthd = DistHDClassifier(dim=64, iterations=3, seed=0).fit(
            train_x, train_y
        )
        trainer = QuantizedTrainer(
            DistHDClassifier(dim=100, iterations=3, seed=0),
            bits=1, packed=True,
        ).fit(train_x, train_y)
        for name, saved, source in (
            ("disthd", disthd, disthd),
            ("packed", trainer, trainer.deployed_),
        ):
            loaded = load_model(self._relabel(save_model(saved, tmp_path / name)))
            if name == "packed":
                assert isinstance(loaded, QuantizedHDCModel) and loaded.packed
            np.testing.assert_array_equal(
                loaded.predict(test_x), source.predict(test_x)
            )
            np.testing.assert_array_equal(
                loaded.decision_scores(test_x), source.decision_scores(test_x)
            )


class TestDatasetIO:
    def test_dataset_roundtrip(self, tmp_path):
        ds = load_dataset("diabetes", scale=0.005, seed=0)
        path = save_dataset(ds, tmp_path / "diabetes")
        restored = load_dataset_file(path)
        assert restored.name == "diabetes"
        assert np.array_equal(restored.train_x, ds.train_x)
        assert np.array_equal(restored.test_y, ds.test_y)
        assert restored.scale == ds.scale

    def test_load_from_arrays(self, rng):
        train_x = rng.normal(size=(50, 8))
        test_x = rng.normal(size=(20, 8))
        train_y = rng.integers(0, 3, 50)
        test_y = rng.integers(0, 3, 20)
        ds = load_from_arrays(train_x, train_y, test_x, test_y, name="real-uci")
        assert ds.name == "real-uci"
        assert ds.n_features == 8
        assert ds.n_classes == 3
        # Standardised with train statistics.
        assert np.allclose(ds.train_x.mean(axis=0), 0.0, atol=1e-9)

    def test_load_from_arrays_no_standardize(self, rng):
        train_x = rng.normal(10.0, 1.0, size=(30, 4))
        ds = load_from_arrays(
            train_x, rng.integers(0, 2, 30),
            rng.normal(10.0, 1.0, size=(10, 4)), rng.integers(0, 2, 10),
            standardize=False,
        )
        assert ds.train_x.mean() > 5.0

    def test_feature_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="feature count"):
            load_from_arrays(
                rng.normal(size=(10, 4)), rng.integers(0, 2, 10),
                rng.normal(size=(5, 3)), rng.integers(0, 2, 5),
            )

    def test_loaded_dataset_trains_models(self, rng, tmp_path):
        """A cached analog file feeds straight into the experiment runner."""
        from repro.pipeline.experiment import run_experiment

        ds = load_dataset("diabetes", scale=0.005, seed=0)
        restored = load_dataset_file(save_dataset(ds, tmp_path / "d"))
        result = run_experiment(
            DistHDClassifier(dim=48, iterations=2, seed=0), restored
        )
        assert result.test_accuracy > 0.3
