"""Tests for the repro.api facade (and its top-level re-exports)."""

import numpy as np
import pytest

from repro.api import ExperimentSpec, build_model, compare, run_experiment
from repro.pipeline.experiment import ExperimentResult

FAST = {"dim": 48, "iterations": 2}


class TestTopLevelExports:
    def test_facade_importable_from_package_root(self):
        from repro import (  # noqa: F401
            ExperimentSpec,
            compare,
            list_models,
            make_model,
            run_experiment,
            serve_model,
        )

    def test_make_model_succeeds_for_every_name(self):
        from repro import list_models, make_model

        for name in list_models():
            assert make_model(name) is not None

    def test_persistence_conveniences_are_reexported(self):
        import repro.api as api
        import repro.persistence as persistence

        assert api.load_model is persistence.load_model
        assert api.save_model is persistence.save_model

    def test_load_model_convenience_round_trip(self, tmp_path):
        import numpy as np

        from repro.api import load_model, save_model
        from repro.core.disthd import DistHDClassifier

        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 8))
        y = np.arange(60) % 3
        clf = DistHDClassifier(dim=48, iterations=2, seed=0).fit(X, y)
        path = save_model(clf, tmp_path / "m.npz")
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict(X), clf.predict(X))


class TestRunExperiment:
    def test_keyword_form(self):
        result = run_experiment(
            model="disthd", dataset="diabetes", scale=0.005,
            model_params=FAST,
        )
        assert isinstance(result, ExperimentResult)
        assert result.model_name == "disthd"
        assert result.dataset_name == "diabetes"
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_spec_and_name_forms_agree(self):
        spec = ExperimentSpec(
            model="disthd", dataset="diabetes", scale=0.005, model_params=FAST
        )
        a = run_experiment(spec)
        b = run_experiment(
            "disthd", dataset="diabetes", scale=0.005, model_params=FAST
        )
        assert a.test_accuracy == b.test_accuracy

    def test_seed_injected_only_when_declared(self):
        knn = build_model("knn", {"k": 3}, seed=7)  # would TypeError if forced
        assert knn.k == 3
        disthd = build_model("disthd", {}, seed=7)
        assert disthd.config.seed == 7
        explicit = build_model("disthd", {"seed": 3}, seed=7)
        assert explicit.config.seed == 3

    def test_noise_bits_adds_quality_loss_extras(self):
        result = run_experiment(
            model="disthd", dataset="diabetes", scale=0.005,
            model_params=FAST, noise_bits=8, error_rates=(0.02, 0.1),
        )
        assert "quality_loss@0.02" in result.extras
        assert "quality_loss@0.1" in result.extras

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="unknown experiment option"):
            run_experiment(model="disthd", datasset="typo")

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment(model="not-a-model", dataset="diabetes", scale=0.005)


class TestCompare:
    def test_labels_and_order_preserved(self):
        results = compare(
            [
                "knn",
                ("DistHD tiny", "disthd", FAST),
                ("DistHD wider", "disthd", {**FAST, "dim": 64}),
            ],
            dataset="diabetes",
            scale=0.005,
            seed=0,
        )
        assert [r.model_name for r in results] == [
            "knn", "DistHD tiny", "DistHD wider"
        ]
        assert len({id(r) for r in results}) == 3

    def test_accepts_prebuilt_dataset(self):
        from repro.datasets.loaders import load_dataset

        ds = load_dataset("diabetes", scale=0.005, seed=0)
        results = compare([("m", "disthd", FAST)], dataset=ds)
        assert results[0].dataset_name == "diabetes"

    def test_bad_ref_rejected(self):
        with pytest.raises(TypeError, match="label, name"):
            compare([42], dataset="diabetes", scale=0.005)


class TestDeprecationShims:
    def test_direct_classifier_imports_still_resolve(self):
        from repro.baselines import OnlineHDClassifier  # noqa: F401
        from repro.core.disthd import DistHDClassifier  # noqa: F401
        from repro.deploy import QuantizedHDCModel  # noqa: F401
