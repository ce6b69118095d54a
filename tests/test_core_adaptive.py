"""Tests for repro.core.adaptive — Algorithm 1."""

import numpy as np
import pytest

from repro.core.adaptive import (
    adaptive_fit_iteration,
    adaptive_update_sample,
    singlepass_fit,
)
from repro.hdc.memory import AssociativeMemory


def _separable_memory_and_data():
    """Two classes along orthogonal axes plus a third distractor axis."""
    rng = np.random.default_rng(0)
    n = 40
    encoded = np.zeros((n, 6))
    labels = np.array([0, 1] * (n // 2))
    encoded[labels == 0, 0] = 1.0
    encoded[labels == 1, 1] = 1.0
    encoded += rng.normal(0, 0.05, size=encoded.shape)
    return encoded, labels


class TestAdaptiveUpdateSample:
    def test_correct_prediction_no_update(self):
        mem = AssociativeMemory(2, 4)
        mem.vectors = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        before = mem.vectors.copy()
        was_correct = adaptive_update_sample(mem, np.array([0.9, 0.1, 0, 0]), 0, lr=0.1)
        assert was_correct
        assert np.array_equal(mem.vectors, before)

    def test_wrong_prediction_moves_both_classes(self):
        mem = AssociativeMemory(2, 4)
        mem.vectors = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        sample = np.array([0.9, 0.1, 0.0, 0.0])
        was_correct = adaptive_update_sample(mem, sample, 1, lr=0.5)
        assert not was_correct
        # True class (1) moved toward the sample, predicted class (0) away.
        assert mem.vectors[1, 0] > 0.0
        assert mem.vectors[0, 0] < 1.0

    def test_update_scaled_by_one_minus_similarity(self):
        """A sample nearly identical to its (wrong) match barely updates (1-δ≈0)."""
        mem = AssociativeMemory(2, 4)
        mem.vectors = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        near_dup = np.array([1.0, 0.0, 0.0, 0.0])
        adaptive_update_sample(mem, near_dup, 1, lr=1.0)
        # Predicted class 0 had δ=1, so it moved by (1-1)*sample = 0.
        assert mem.vectors[0, 0] == pytest.approx(1.0)


class TestAdaptiveFitIteration:
    def test_improves_from_zero(self):
        encoded, labels = _separable_memory_and_data()
        mem = AssociativeMemory(2, 6)
        for _ in range(5):
            adaptive_fit_iteration(mem, encoded, labels, lr=0.5)
        assert np.mean(mem.predict(encoded) == labels) > 0.95

    def test_returns_batch_start_accuracy(self):
        encoded, labels = _separable_memory_and_data()
        mem = AssociativeMemory(2, 6)
        first = adaptive_fit_iteration(mem, encoded, labels, lr=0.5)
        assert 0.0 <= first <= 1.0
        later = adaptive_fit_iteration(mem, encoded, labels, lr=0.5)
        assert later >= first

    def test_batched_equivalent_coverage(self):
        encoded, labels = _separable_memory_and_data()
        mem = AssociativeMemory(2, 6)
        acc = adaptive_fit_iteration(mem, encoded, labels, lr=0.5, batch_size=7)
        assert 0.0 <= acc <= 1.0
        assert mem.vectors.any()

    def test_shuffle_changes_order_not_coverage(self):
        encoded, labels = _separable_memory_and_data()
        m1 = AssociativeMemory(2, 6)
        m2 = AssociativeMemory(2, 6)
        adaptive_fit_iteration(m1, encoded, labels, lr=0.5)
        adaptive_fit_iteration(
            m2, encoded, labels, lr=0.5, shuffle_rng=np.random.default_rng(1)
        )
        # Different update order, but both learn the separable problem.
        for mem in (m1, m2):
            for _ in range(4):
                adaptive_fit_iteration(mem, encoded, labels, lr=0.5)
            assert np.mean(mem.predict(encoded) == labels) > 0.9

    def test_bad_lr(self):
        encoded, labels = _separable_memory_and_data()
        with pytest.raises(ValueError, match="lr"):
            adaptive_fit_iteration(AssociativeMemory(2, 6), encoded, labels, lr=0.0)

    def test_bad_batch_size(self):
        encoded, labels = _separable_memory_and_data()
        with pytest.raises(ValueError, match="batch_size"):
            adaptive_fit_iteration(
                AssociativeMemory(2, 6), encoded, labels, batch_size=0
            )

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="sample count"):
            adaptive_fit_iteration(AssociativeMemory(2, 4), np.ones((3, 4)), [0, 1])

    def test_perfect_model_untouched(self):
        encoded, labels = _separable_memory_and_data()
        mem = AssociativeMemory(2, 6)
        singlepass_fit(mem, encoded, labels)
        for _ in range(3):
            adaptive_fit_iteration(mem, encoded, labels, lr=0.5)
        before = mem.vectors.copy()
        acc = adaptive_fit_iteration(mem, encoded, labels, lr=0.5)
        if acc == 1.0:
            assert np.array_equal(mem.vectors, before)


class TestSinglepassFit:
    def test_accumulates(self):
        mem = AssociativeMemory(2, 3)
        singlepass_fit(mem, np.array([[1.0, 0, 0], [0, 1.0, 0]]), [0, 1])
        assert mem.vectors[0, 0] == 1.0
        assert mem.vectors[1, 1] == 1.0


def _two_scatter_update(vectors, H, predicted, labels, sim_pred, sim_true, lr):
    """Algorithm 1's update as two scaled copies of ``H`` and two
    scatter-adds, at the memory's dtype: the reference for the folded GEMM.

    Returns the updated bank and a per-cell bound on how far two roundings
    of it may differ: a cell of class ``c`` sums one term per update that
    lands on ``c`` plus its old value, and both sides add them in their own
    order (twice the textbook ``γ(m) · Σ|terms|``).
    """
    dtype = vectors.dtype
    coeff_pred = (-lr * (1.0 - sim_pred)).astype(dtype)
    coeff_true = (lr * (1.0 - sim_true)).astype(dtype)
    ref = vectors.copy()
    np.add.at(ref, predicted, coeff_pred[:, None] * H)
    np.add.at(ref, labels, coeff_true[:, None] * H)
    magnitude = np.abs(vectors).astype(np.float64)
    np.add.at(magnitude, predicted, np.abs(coeff_pred[:, None] * H))
    np.add.at(magnitude, labels, np.abs(coeff_true[:, None] * H))
    k = vectors.shape[0]
    terms = (
        np.bincount(predicted, minlength=k) + np.bincount(labels, minlength=k) + 1
    )
    eps = float(np.finfo(dtype).eps)
    return ref, 2.0 * terms[:, None] * eps * magnitude


class TestFoldedMisclassifiedUpdate:
    """``update_misclassified`` applies both halves of Algorithm 1's update
    as one ``(k, n_wrong)`` weight matrix times ``H``; it must match the
    two-scatter form to rounding, rows whose predicted label equals their
    true label included (both updates then land in one class row)."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_two_scatter_reference(self, dtype):
        rng = np.random.default_rng(3)
        k, n, dim = 5, 300, 256
        mem = AssociativeMemory(k, dim, dtype=dtype)
        mem.set_vectors(rng.normal(size=(k, dim)))
        H = rng.normal(size=(n, dim)).astype(dtype)
        predicted = rng.integers(0, k, size=n)
        labels = rng.integers(0, k, size=n)
        labels[:60] = predicted[:60]
        sim_pred = rng.uniform(-1.0, 1.0, size=n)
        sim_true = rng.uniform(-1.0, 1.0, size=n)
        before = mem.numpy_vectors().copy()
        mem.update_misclassified(H, predicted, labels, sim_pred, sim_true, 0.05)
        ref, bound = _two_scatter_update(
            before, H, predicted, labels, sim_pred, sim_true, 0.05
        )
        got = mem.numpy_vectors()
        assert got.dtype == np.dtype(dtype)
        assert np.all(np.abs(got.astype(np.float64) - ref) <= bound)

    def test_predicted_equals_true_row_gets_both_terms(self):
        mem = AssociativeMemory(3, 4, dtype="float32")
        mem.set_vectors(np.ones((3, 4)))
        H = np.array([[1.0, 2.0, 0.0, -1.0]], dtype=np.float32)
        mem.update_misclassified(
            H, np.array([1]), np.array([1]), np.array([0.5]), np.array([0.2]),
            0.1,
        )
        # −0.1·(1 − 0.5) + 0.1·(1 − 0.2) = 0.03 on class 1 only.
        expected = np.ones((3, 4))
        expected[1] += 0.03 * H[0]
        np.testing.assert_allclose(mem.numpy_vectors(), expected, rtol=1e-6)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_row_adaptive_update_sample(self, dtype):
        rng = np.random.default_rng(5)
        k, dim = 4, 64
        mem = AssociativeMemory(k, dim, dtype=dtype)
        mem.set_vectors(rng.normal(size=(k, dim)))
        sample = rng.normal(size=dim).astype(dtype)
        sims = mem.similarities(sample.reshape(1, -1))[0]
        predicted = int(np.argmax(sims))
        label = (predicted + 1) % k
        before = mem.numpy_vectors().copy()
        assert not adaptive_update_sample(mem, sample, label, lr=0.3)
        ref, bound = _two_scatter_update(
            before, sample.reshape(1, -1), np.array([predicted]),
            np.array([label]), sims[[predicted]], sims[[label]], 0.3,
        )
        got = mem.numpy_vectors().astype(np.float64)
        assert np.all(np.abs(got - ref) <= bound)
        untouched = [c for c in range(k) if c not in (predicted, label)]
        np.testing.assert_array_equal(
            mem.numpy_vectors()[untouched], before[untouched]
        )
