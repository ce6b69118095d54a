"""Tests for the incremental-learning protocol (BaseClassifier.partial_fit)."""

import numpy as np
import pytest

from repro.baselines.baselinehd import BaselineHDClassifier
from repro.baselines.knn import KNNClassifier
from repro.baselines.mlp import MLPClassifier
from repro.baselines.onlinehd import OnlineHDClassifier
from repro.core.disthd import DistHDClassifier


def _batches(X, y, batch_size=32):
    for start in range(0, X.shape[0], batch_size):
        yield X[start : start + batch_size], y[start : start + batch_size]


STREAMERS = {
    "disthd": lambda: DistHDClassifier(
        dim=96, regen_rate=0.2, selection="union", seed=0,
        reservoir_size=120, regen_every=2,
    ),
    "onlinehd": lambda: OnlineHDClassifier(dim=96, seed=0),
    "baselinehd": lambda: BaselineHDClassifier(dim=256, seed=0),
}


class TestProtocol:
    def test_capability_flags(self):
        assert DistHDClassifier.supports_streaming
        assert OnlineHDClassifier.supports_streaming
        assert BaselineHDClassifier.supports_streaming
        assert not MLPClassifier.supports_streaming
        assert not KNNClassifier.supports_streaming

    def test_non_streaming_model_raises(self, small_problem):
        train_x, train_y, _, _ = small_problem
        with pytest.raises(NotImplementedError, match="supports_streaming"):
            KNNClassifier().partial_fit(train_x[:8], train_y[:8])

    def test_classes_fixed_by_first_call(self, small_problem):
        train_x, train_y, _, _ = small_problem
        model = OnlineHDClassifier(dim=32, seed=0)
        model.partial_fit(train_x[:32], train_y[:32], classes=[0, 1, 2])
        assert np.array_equal(model.classes_, [0, 1, 2])
        with pytest.raises(ValueError, match="must lie in"):
            model.partial_fit(train_x[:4], [0, 1, 2, 9])

    def test_first_batch_must_cover_declared_classes(self, small_problem):
        train_x, train_y, _, _ = small_problem
        model = OnlineHDClassifier(dim=32, seed=0)
        with pytest.raises(ValueError, match="not in the declared classes"):
            model.partial_fit(train_x[:8], train_y[:8], classes=[0, 1])

    def test_single_class_first_batch_needs_classes(self, small_problem):
        train_x, train_y, _, _ = small_problem
        idx = np.flatnonzero(train_y == 0)[:8]
        model = OnlineHDClassifier(dim=32, seed=0)
        with pytest.raises(ValueError, match="at least 2 classes"):
            model.partial_fit(train_x[idx], train_y[idx])
        # Same batch works once the full class set is declared.
        model.partial_fit(train_x[idx], train_y[idx], classes=[0, 1, 2])
        assert model.n_batches_ == 1

    def test_feature_mismatch_rejected(self, small_problem):
        train_x, train_y, _, _ = small_problem
        model = OnlineHDClassifier(dim=32, seed=0)
        model.partial_fit(train_x[:32], train_y[:32])
        with pytest.raises(ValueError, match="features"):
            model.partial_fit(np.ones((2, train_x.shape[1] + 1)), [0, 1])

    @pytest.mark.parametrize("name", sorted(STREAMERS))
    def test_streamed_training_learns(self, name, small_problem):
        train_x, train_y, test_x, test_y = small_problem
        model = STREAMERS[name]()
        for _ in range(2):
            for xb, yb in _batches(train_x, train_y):
                model.partial_fit(xb, yb, classes=[0, 1, 2])
        assert model.score(test_x, test_y) > 0.75, name
        assert model.n_samples_seen_ == 2 * train_x.shape[0]

    def test_noncontiguous_labels_remap(self, small_problem):
        train_x, train_y, test_x, test_y = small_problem
        remapped = np.array([5, 17, 42])[train_y]
        model = OnlineHDClassifier(dim=64, seed=0)
        for xb, yb in _batches(train_x, remapped):
            model.partial_fit(xb, yb, classes=[5, 17, 42])
        preds = model.predict(test_x)
        assert set(np.unique(preds)) <= {5, 17, 42}
        acc = float(np.mean(preds == np.array([5, 17, 42])[test_y]))
        assert acc > 0.75


class TestParityWithBatch:
    def test_onlinehd_stream_approaches_batch(self, small_problem):
        """Satellite: streamed batches ≈ batch fit on OnlineHD."""
        train_x, train_y, test_x, test_y = small_problem
        epochs = 4
        batch = OnlineHDClassifier(
            dim=96, iterations=epochs, convergence_patience=None, seed=0
        ).fit(train_x, train_y)
        stream = OnlineHDClassifier(dim=96, seed=0)
        for _ in range(epochs):
            for xb, yb in _batches(train_x, train_y):
                stream.partial_fit(xb, yb)
        batch_acc = batch.score(test_x, test_y)
        stream_acc = stream.score(test_x, test_y)
        assert stream_acc > batch_acc - 0.1

    def test_disthd_stream_approaches_batch(self, small_problem):
        train_x, train_y, test_x, test_y = small_problem
        batch = DistHDClassifier(dim=96, iterations=4, seed=0).fit(
            train_x, train_y
        )
        stream = DistHDClassifier(dim=96, seed=0)
        for _ in range(4):
            for xb, yb in _batches(train_x, train_y):
                stream.partial_fit(xb, yb)
        assert stream.score(test_x, test_y) > batch.score(test_x, test_y) - 0.1

    def test_disthd_regenerates_on_stream(self, small_problem):
        train_x, train_y, _, _ = small_problem
        model = STREAMERS["disthd"]()
        for _ in range(3):
            for xb, yb in _batches(train_x, train_y):
                model.partial_fit(xb, yb)
        assert model.total_regenerated_ > 0
        assert model.effective_dim_ == 96 + model.total_regenerated_
        assert model._reservoir_x.shape[0] <= model.config.reservoir_size

    def test_disthd_counts_batches(self, small_problem):
        """``n_batches_`` / ``n_samples_seen_`` count every batch."""
        train_x, train_y, _, _ = small_problem
        model = STREAMERS["disthd"]()
        batches = list(_batches(train_x, train_y))
        for count, (xb, yb) in enumerate(batches, start=1):
            model.partial_fit(xb, yb, classes=[0, 1, 2])
            assert model.n_batches_ == count
        assert model.n_samples_seen_ == sum(len(yb) for _, yb in batches)

    def test_disthd_reservoir_bounded(self, small_problem):
        """The regeneration reservoir never outgrows ``reservoir_size``,
        even when one batch is larger than it."""
        train_x, train_y, _, _ = small_problem
        model = DistHDClassifier(
            dim=96, seed=0, reservoir_size=20, regen_every=2
        )
        for _ in range(3):
            for xb, yb in _batches(train_x, train_y):
                model.partial_fit(xb, yb, classes=[0, 1, 2])
                assert model._reservoir_x.shape[0] <= 20

    def test_partial_fit_refines_batch_fitted_model(self, small_problem):
        """fit() then partial_fit() continues training the same model."""
        train_x, train_y, test_x, test_y = small_problem
        model = OnlineHDClassifier(dim=96, iterations=2, seed=0)
        model.fit(train_x, train_y)
        memory_before = model.memory_.vectors.copy()
        model.partial_fit(train_x[:64], train_y[:64])
        assert not np.array_equal(model.memory_.vectors, memory_before)
        assert model.score(test_x, test_y) > 0.75

    def test_fit_resets_stream_counters(self, small_problem):
        train_x, train_y, _, _ = small_problem
        model = DistHDClassifier(dim=48, iterations=2, seed=0)
        model.partial_fit(train_x[:32], train_y[:32], classes=[0, 1, 2])
        assert model.n_batches_ == 1
        model.fit(train_x, train_y)
        assert model.n_batches_ == 0
        assert model.n_samples_seen_ == 0
