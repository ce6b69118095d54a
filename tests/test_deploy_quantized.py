"""Tests for repro.deploy.quantized.QuantizedHDCModel."""

import numpy as np
import pytest

import repro.backend.base as window_rule
from repro.baselines.knn import KNNClassifier
from repro.core.disthd import DistHDClassifier
from repro.deploy.quantized import QuantizedHDCModel, QuantizedTrainer


@pytest.fixture(scope="module")
def fitted(small_problem):
    train_x, train_y, _, _ = small_problem
    return DistHDClassifier(dim=128, iterations=6, seed=0).fit(train_x, train_y)


class TestConstruction:
    def test_requires_fitted_hdc(self, small_problem):
        train_x, train_y, _, _ = small_problem
        knn = KNNClassifier(k=3).fit(train_x, train_y)
        with pytest.raises(TypeError, match="fitted HDC classifier"):
            QuantizedHDCModel(knn)

    def test_requires_fit(self):
        with pytest.raises(TypeError):
            QuantizedHDCModel(DistHDClassifier(dim=32))

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_all_precisions(self, fitted, bits):
        model = QuantizedHDCModel(fitted, bits=bits)
        assert model.bits == bits

    @pytest.mark.parametrize("chunk_size", [2.5, "4", -3, 0])
    @pytest.mark.parametrize("build", [
        lambda clf, chunk: QuantizedHDCModel(clf, chunk_size=chunk),
        lambda clf, chunk: QuantizedTrainer(
            DistHDClassifier(dim=32), chunk_size=chunk
        ),
    ], ids=["QuantizedHDCModel", "QuantizedTrainer"])
    def test_chunk_size_checked_at_construction(self, fitted, build,
                                                chunk_size):
        """The option is gone: any value is refused at construction as
        an unexpected keyword, not swallowed and ignored."""
        with pytest.raises(TypeError, match="chunk_size"):
            build(fitted, chunk_size)


class TestInference:
    def test_8bit_matches_float_closely(self, fitted, small_problem):
        _, _, test_x, test_y = small_problem
        model = QuantizedHDCModel(fitted, bits=8)
        agreement = np.mean(model.predict(test_x) == fitted.predict(test_x))
        assert agreement > 0.95

    def test_1bit_still_functional(self, fitted, small_problem):
        _, _, test_x, test_y = small_problem
        model = QuantizedHDCModel(fitted, bits=1)
        assert model.score(test_x, test_y) > 0.6

    def test_labels_are_original_classes(self, fitted, small_problem):
        _, _, test_x, _ = small_problem
        model = QuantizedHDCModel(fitted, bits=4)
        assert set(np.unique(model.predict(test_x))) <= set(fitted.classes_)

    def test_feature_mismatch(self, fitted):
        model = QuantizedHDCModel(fitted, bits=8)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((1, 3)))


class TestFootprint:
    def test_memory_shrinks_with_bits(self, fitted):
        sizes = [QuantizedHDCModel(fitted, bits=b).memory_bytes for b in (1, 2, 4, 8)]
        assert sizes[0] < sizes[1] < sizes[2] < sizes[3]

    def test_1bit_is_itemsize_x8_smaller_than_float(self, fitted):
        # One bit per cell vs the training dtype's full width: 32x for the
        # float32 hot-path default, 64x for float64-trained models.
        model = QuantizedHDCModel(fitted, bits=1)
        vectors = fitted.memory_.numpy_vectors()
        expected = vectors.itemsize * 8
        assert vectors.nbytes / model.memory_bytes == pytest.approx(
            expected, rel=0.1
        )

    def test_report_fields(self, fitted):
        report = QuantizedHDCModel(fitted, bits=2).footprint_report()
        assert report["bits"] == 2
        # Compression is measured against the base memory's *actual*
        # storage dtype (float32 hot-path default → 32 bits / 2 bits);
        # an earlier revision hard-coded a float64 reference and claimed
        # 32x here.
        assert report["compression"] == pytest.approx(16.0, rel=0.1)
        assert report["encoder_parameters"] > 0
        assert report["refresh_count"] == 0

    def test_float_reference_uses_base_dtype(self, small_problem):
        train_x, train_y, _, _ = small_problem
        f64 = DistHDClassifier(
            dim=64, iterations=2, seed=0, dtype="float64"
        ).fit(train_x, train_y)
        report = QuantizedHDCModel(f64, bits=2).footprint_report()
        assert report["compression"] == pytest.approx(32.0, rel=0.1)


class TestFaultInjection:
    def test_flip_count(self, fitted):
        model = QuantizedHDCModel(fitted, bits=8)
        total = model._quantized.n_bits_total
        n = model.inject_faults(0.1, seed=0)
        assert n == round(0.1 * total)

    def test_faults_degrade_or_hold(self, fitted, small_problem):
        _, _, test_x, test_y = small_problem
        clean = QuantizedHDCModel(fitted, bits=8)
        clean_acc = clean.score(test_x, test_y)
        noisy = QuantizedHDCModel(fitted, bits=8)
        noisy.inject_faults(0.4, seed=1)
        assert noisy.score(test_x, test_y) <= clean_acc + 0.05

    def test_faults_accumulate(self, fitted):
        model = QuantizedHDCModel(fitted, bits=8)
        before = model._quantized.codes.copy()
        model.inject_faults(0.05, seed=0)
        first = model._quantized.codes.copy()
        model.inject_faults(0.05, seed=1)
        assert not np.array_equal(before, first)
        assert not np.array_equal(first, model._quantized.codes)

    def test_original_classifier_untouched(self, fitted, small_problem):
        _, _, test_x, test_y = small_problem
        before = fitted.memory_.vectors.copy()
        model = QuantizedHDCModel(fitted, bits=1)
        model.inject_faults(0.5, seed=0)
        assert np.array_equal(fitted.memory_.vectors, before)


class TestRefresh:
    """QuantizedHDCModel.refresh(): re-quantize from the live base in place."""

    def _fresh(self, small_problem, **overrides):
        train_x, train_y, _, _ = small_problem
        params = dict(dim=96, iterations=4, seed=0)
        params.update(overrides)
        return (
            DistHDClassifier(**params).fit(train_x, train_y),
            train_x, train_y,
        )

    def test_refresh_tracks_partial_fit_updates(self, small_problem):
        base, train_x, train_y = self._fresh(small_problem)
        model = QuantizedHDCModel(base, bits=8)
        stale = model.class_vectors.copy()
        base.partial_fit(train_x[:64], train_y[:64])
        # Before refresh the frozen image is unchanged.
        np.testing.assert_array_equal(model.class_vectors, stale)
        out = model.refresh()
        assert out is model  # in place, chainable
        assert model.refresh_count == 1
        assert not np.array_equal(model.class_vectors, stale)
        # The refreshed image equals a freshly built wrapper's.
        rebuilt = QuantizedHDCModel(base, bits=8)
        np.testing.assert_array_equal(
            model.class_vectors, rebuilt.class_vectors
        )

    def test_refresh_discards_injected_faults(self, small_problem):
        base, _, _ = self._fresh(small_problem)
        model = QuantizedHDCModel(base, bits=8)
        clean = model.class_vectors.copy()
        model.inject_faults(0.3, seed=0)
        assert not np.array_equal(model.class_vectors, clean)
        model.refresh()
        np.testing.assert_array_equal(model.class_vectors, clean)

    def test_footprint_reflects_post_refresh_state(self, small_problem):
        base, train_x, train_y = self._fresh(small_problem)
        model = QuantizedHDCModel(base, bits=8)
        base.partial_fit(train_x[:32], train_y[:32])
        report = model.refresh().footprint_report()
        assert report["refresh_count"] == 1
        # float32 hot-path default: 4-byte reference per cell.
        assert report["float_memory_bytes"] == model._quantized.codes.size * 4
        assert report["compression"] == pytest.approx(4.0, rel=0.1)

    def test_frozen_encoder_is_independent_of_live_base(self, small_problem):
        base, train_x, train_y = self._fresh(
            small_problem, regen_rate=0.2, selection="union",
            reservoir_size=64, regen_every=1,
        )
        model = QuantizedHDCModel(base, bits=8)
        assert model.encoder is not base.encoder_
        before = model.decision_scores(train_x[:8]).copy()
        # Stream enough batches to force regeneration on the live base.
        for start in range(0, 192, 32):
            base.partial_fit(train_x[start:start + 32],
                             train_y[start:start + 32])
        assert base.encoder_.regenerated_count > 0
        # The frozen artifact is unaffected until an explicit refresh.
        np.testing.assert_array_equal(
            model.decision_scores(train_x[:8]), before
        )
        model.refresh()
        assert model.encoder is not base.encoder_

    def test_retain_base_false_is_self_contained(self, small_problem):
        base, _, _ = self._fresh(small_problem)
        model = QuantizedHDCModel(base, bits=8, retain_base=False)
        assert model.classifier is None
        with pytest.raises(RuntimeError, match="retain_base=False"):
            model.refresh()
        # Inference and footprint still work without the back-reference.
        assert model.footprint_report()["bits"] == 8

    def test_loaded_artifact_does_not_retain_base(
        self, small_problem, tmp_path
    ):
        from repro.deploy.quantized import QuantizedTrainer
        from repro.persistence import load_model, save_model

        train_x, train_y, _, _ = small_problem
        trainer = QuantizedTrainer(
            DistHDClassifier(dim=64, iterations=2, seed=0), bits=8
        ).fit(train_x, train_y)
        path = save_model(trainer, tmp_path / "q.npz")
        loaded = load_model(path)
        assert isinstance(loaded, QuantizedHDCModel)
        assert loaded.classifier is None

    def test_refresh_requires_fitted_base(self, small_problem):
        base, _, _ = self._fresh(small_problem)
        model = QuantizedHDCModel(base, bits=8)
        model.classifier = DistHDClassifier(dim=16)  # unfitted
        with pytest.raises(RuntimeError, match="cannot refresh"):
            model.refresh()

    def test_trainer_partial_fit_refreshes_deployment(self, small_problem):
        from repro.deploy.quantized import QuantizedTrainer

        train_x, train_y, test_x, _ = small_problem
        trainer = QuantizedTrainer(
            DistHDClassifier(dim=96, iterations=4, seed=0), bits=8
        )
        trainer.fit(train_x, train_y)
        stale = trainer.deployed_.class_vectors.copy()
        trainer.partial_fit(train_x[:64], train_y[:64])
        assert trainer.deployed_.refresh_count == 1
        assert not np.array_equal(trainer.deployed_.class_vectors, stale)
        # refresh() delegation with no intervening training is a no-op
        # on the image but still counts.
        image = trainer.deployed_.class_vectors.copy()
        trainer.refresh()
        assert trainer.deployed_.refresh_count == 2
        np.testing.assert_array_equal(trainer.deployed_.class_vectors, image)

    def test_trainer_partial_fit_from_scratch(self, small_problem):
        from repro.deploy.quantized import QuantizedTrainer

        train_x, train_y, test_x, test_y = small_problem
        trainer = QuantizedTrainer(
            DistHDClassifier(dim=96, iterations=4, seed=0), bits=8
        )
        classes = np.unique(train_y)
        for start in range(0, 128, 32):
            trainer.partial_fit(
                train_x[start:start + 32], train_y[start:start + 32],
                classes=classes,
            )
        assert trainer.deployed_ is not None
        assert trainer.score(test_x, test_y) > 0.4


class TestPacked:
    """Bit-packed 1-bit deployment: exact parity, footprint, faults,
    refresh and persistence."""

    @pytest.fixture()
    def artifact(self, fitted):
        return QuantizedHDCModel(fitted, bits=1, packed=True)

    def test_requires_one_bit(self, fitted):
        with pytest.raises(ValueError, match="bits=1"):
            QuantizedHDCModel(fitted, bits=8, packed=True)
        from repro.deploy.quantized import QuantizedTrainer

        with pytest.raises(ValueError, match="bits=1"):
            QuantizedTrainer(DistHDClassifier(dim=32), bits=4, packed=True)

    def test_scores_bit_identical_to_unpacked_binary(
        self, fitted, artifact, small_problem
    ):
        """Packed XOR+popcount must reproduce the unpacked binary scorer
        exactly — scores and predictions, not approximately."""
        from repro.hdc.packed import unpack_rows

        _, _, test_x, _ = small_problem
        encoded = artifact.encoder.encode(test_x)
        encoded_np = artifact.encoder.backend.to_numpy(encoded)
        dim = encoded_np.shape[1]
        q = (encoded_np >= 0).astype(np.int64)
        m = unpack_rows(artifact.packed_words, dim).astype(np.int64)
        counts = (
            q.sum(axis=1)[:, None]
            + m.sum(axis=1)[None, :]
            - 2 * (q @ m.T)
        )
        scale = np.float64(dim)
        reference = (scale - 2.0 * counts.astype(np.float64)) / scale
        scores = artifact.decision_scores(test_x)
        np.testing.assert_array_equal(scores, reference)
        np.testing.assert_array_equal(
            artifact.predict(test_x),
            artifact.classes_[np.argmax(reference, axis=1)],
        )

    def test_still_functional(self, artifact, small_problem):
        _, _, test_x, test_y = small_problem
        assert artifact.score(test_x, test_y) > 0.6

    def test_chunk_size_invariance(self, fitted, small_problem,
                                   monkeypatch):
        _, _, test_x, _ = small_problem
        model = QuantizedHDCModel(fitted, bits=1, packed=True)
        full = model.score_encoded(model.encode(test_x))
        # Windows of 7 rows at D = 128 (the rule's floor drops to 2 rows).
        monkeypatch.setattr(window_rule, "_REFRESH_ELEMENTS", 7 * 128)
        monkeypatch.setattr(window_rule, "_EXACT_GEMM_ELEMENTS", 2)
        windows = window_rule.refresh_windows(len(test_x), 128)
        assert [b - a for a, b in windows] == [7] * 8 + [5]
        np.testing.assert_array_equal(model.decision_scores(test_x), full)

    def test_memory_is_word_storage(self, fitted, artifact):
        k = fitted.classes_.size
        dim = fitted.memory_.dim
        words = (dim + 63) // 64
        assert artifact.packed_words.shape == (k, words)
        assert artifact.packed_words.dtype == np.uint64
        assert artifact.memory_bytes == k * words * 8
        unpacked = QuantizedHDCModel(fitted, bits=1)
        assert artifact.memory_bytes <= unpacked.memory_bytes

    def test_footprint_report_packed_rows(self, fitted, artifact):
        report = artifact.footprint_report()
        assert report["packed"] is True
        assert report["packed_bytes"] == artifact.memory_bytes
        assert report["words_per_class"] == (fitted.memory_.dim + 63) // 64
        assert (
            report["unpacked_1bit_serving_bytes"]
            == report["unpacked_1bit_bytes"] * 8
        )
        assert report["compression_vs_unpacked"] == pytest.approx(
            report["unpacked_1bit_serving_bytes"] / report["packed_bytes"]
        )
        assert QuantizedHDCModel(fitted, bits=1).footprint_report()[
            "packed"
        ] is False

    def test_inject_faults_exact_and_degrading(self, fitted, small_problem):
        _, _, test_x, _ = small_problem
        artifact = QuantizedHDCModel(fitted, bits=1, packed=True)
        before = artifact.packed_words.copy()
        rate = 0.05
        total = fitted.classes_.size * fitted.memory_.dim
        artifact.inject_faults(rate, seed=0)
        from repro.hdc.packed import unpack_rows

        dim = fitted.memory_.dim
        flipped = int(
            (
                unpack_rows(before, dim)
                != unpack_rows(artifact.packed_words, dim)
            ).sum()
        )
        assert flipped == round(rate * total)

    def test_fault_parity_with_unpacked(self, fitted, small_problem):
        """Same seed, same rate: packed and unpacked fault injection flip
        the same *number* of cells and both artifacts keep predicting."""
        _, _, test_x, _ = small_problem
        packed_m = QuantizedHDCModel(fitted, bits=1, packed=True)
        unpacked_m = QuantizedHDCModel(fitted, bits=1)
        packed_m.inject_faults(0.02, seed=3)
        unpacked_m.inject_faults(0.02, seed=3)
        assert packed_m.predict(test_x).shape == unpacked_m.predict(test_x).shape

    def test_refresh_discards_faults_and_repacks(self, small_problem):
        train_x, train_y, _, _ = small_problem
        base = DistHDClassifier(dim=64, iterations=2, seed=0).fit(
            train_x, train_y
        )
        artifact = QuantizedHDCModel(base, bits=1, packed=True)
        pristine = artifact.packed_words.copy()
        artifact.inject_faults(0.2, seed=1)
        assert not np.array_equal(artifact.packed_words, pristine)
        artifact.refresh()
        np.testing.assert_array_equal(artifact.packed_words, pristine)
        assert artifact.packed is True

    def test_persistence_roundtrip(self, small_problem, tmp_path):
        from repro.deploy.quantized import QuantizedTrainer
        from repro.persistence import load_model, save_model

        train_x, train_y, test_x, _ = small_problem
        trainer = QuantizedTrainer(
            DistHDClassifier(dim=100, iterations=3, seed=0),
            bits=1, packed=True,
        ).fit(train_x, train_y)
        path = save_model(trainer, tmp_path / "packed.npz")
        loaded = load_model(path)
        assert isinstance(loaded, QuantizedHDCModel)
        assert loaded.packed is True
        np.testing.assert_array_equal(
            loaded.packed_words, trainer.deployed_.packed_words
        )
        np.testing.assert_array_equal(
            loaded.predict(test_x), trainer.predict(test_x)
        )

    def test_persistence_roundtrip_preserves_faults(
        self, small_problem, tmp_path
    ):
        """Faulted packed artifacts survive save/load: the decoded image
        re-quantizes (and re-packs) to the exact faulted words."""
        from repro.deploy.quantized import QuantizedTrainer
        from repro.persistence import load_model, save_model

        train_x, train_y, test_x, _ = small_problem
        trainer = QuantizedTrainer(
            DistHDClassifier(dim=100, iterations=3, seed=0),
            bits=1, packed=True,
        ).fit(train_x, train_y)
        trainer.deployed_.inject_faults(0.1, seed=7)
        faulted = trainer.deployed_.packed_words.copy()
        loaded = load_model(save_model(trainer, tmp_path / "faulted.npz"))
        np.testing.assert_array_equal(loaded.packed_words, faulted)
        np.testing.assert_array_equal(
            loaded.predict(test_x), trainer.predict(test_x)
        )

    def test_trainer_partial_fit_stays_packed(self, small_problem):
        from repro.deploy.quantized import QuantizedTrainer

        train_x, train_y, test_x, test_y = small_problem
        trainer = QuantizedTrainer(
            DistHDClassifier(dim=96, iterations=4, seed=0),
            bits=1, packed=True,
        )
        trainer.fit(train_x, train_y)
        assert trainer.deployed_.packed is True
        trainer.partial_fit(train_x[:64], train_y[:64])
        assert trainer.deployed_.packed is True
        assert trainer.score(test_x, test_y) > 0.4

    def test_catalog_variant(self, small_problem):
        from repro.models.registry import make_model

        train_x, train_y, test_x, test_y = small_problem
        trainer = make_model(
            "disthd-quantized", bits=1, packed=True,
            dim=64, iterations=2, seed=0,
        )
        trainer.fit(train_x, train_y)
        assert trainer.deployed_.packed is True
        assert trainer.score(test_x, test_y) > 0.4
