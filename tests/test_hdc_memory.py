"""Tests for repro.hdc.memory.AssociativeMemory."""

import numpy as np
import pytest

from repro.hdc.memory import AssociativeMemory


@pytest.fixture
def memory():
    mem = AssociativeMemory(3, 8)
    mem.vectors = np.eye(3, 8)
    return mem


class TestConstruction:
    def test_zero_init(self):
        mem = AssociativeMemory(4, 16)
        assert mem.vectors.shape == (4, 16)
        assert not mem.vectors.any()

    @pytest.mark.parametrize("k,d", [(0, 8), (3, 0), (-1, 8)])
    def test_bad_shape(self, k, d):
        with pytest.raises(ValueError):
            AssociativeMemory(k, d)

    def test_bad_metric(self):
        with pytest.raises(ValueError, match="metric"):
            AssociativeMemory(2, 4, metric="euclid")


class TestAccumulate:
    def test_bundles_per_class(self):
        mem = AssociativeMemory(2, 3)
        mem.accumulate(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]]), [0, 1, 0])
        assert np.array_equal(mem.vectors[0], [2.0, 1.0, 0.0])
        assert np.array_equal(mem.vectors[1], [0.0, 1.0, 0.0])

    def test_duplicate_labels_accumulate(self):
        mem = AssociativeMemory(2, 2)
        mem.accumulate(np.ones((5, 2)), [0] * 5)
        assert np.array_equal(mem.vectors[0], [5.0, 5.0])

    def test_label_out_of_range(self):
        mem = AssociativeMemory(2, 2)
        with pytest.raises(ValueError, match="labels must lie"):
            mem.accumulate(np.ones((1, 2)), [5])

    def test_dim_mismatch(self):
        mem = AssociativeMemory(2, 2)
        with pytest.raises(ValueError, match="dimensionality"):
            mem.accumulate(np.ones((1, 3)), [0])

    def test_count_mismatch(self):
        mem = AssociativeMemory(2, 2)
        with pytest.raises(ValueError, match="sample count"):
            mem.accumulate(np.ones((2, 2)), [0])


class TestQueries:
    def test_predict_matches_nearest(self, memory):
        queries = np.array([[1.0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0, 0, 0, 0]])
        assert np.array_equal(memory.predict(queries), [0, 2])

    def test_similarity_shape(self, memory):
        assert memory.similarities(np.ones((5, 8))).shape == (5, 3)

    def test_topk_ordering(self, memory):
        q = np.array([[1.0, 0.5, 0.1, 0, 0, 0, 0, 0]])
        labels, scores = memory.topk(q, k=3)
        assert np.array_equal(labels[0], [0, 1, 2])
        assert scores[0, 0] >= scores[0, 1] >= scores[0, 2]

    def test_topk_bad_k(self, memory):
        with pytest.raises(ValueError, match="k must lie"):
            memory.topk(np.ones((1, 8)), k=4)
        with pytest.raises(ValueError, match="k must lie"):
            memory.topk(np.ones((1, 8)), k=0)

    def test_dot_metric(self):
        mem = AssociativeMemory(2, 2, metric="dot")
        mem.vectors = np.array([[10.0, 0.0], [0.0, 1.0]])
        # Dot favours the large-magnitude class even at equal angle spread.
        assert mem.predict(np.array([[1.0, 1.0]]))[0] == 0

    def test_normalized_rows(self, memory):
        norms = np.linalg.norm(memory.normalized(), axis=1)
        assert np.allclose(norms, 1.0)


class TestMutation:
    def test_add_to_class(self, memory):
        memory.add_to_class(1, np.full(8, 0.5))
        assert memory.vectors[1, 0] == pytest.approx(0.5)
        assert memory.vectors[1, 1] == pytest.approx(1.5)

    def test_add_to_class_range(self, memory):
        with pytest.raises(ValueError, match="class_index"):
            memory.add_to_class(3, np.zeros(8))

    def test_reset(self, memory):
        memory.reset()
        assert not memory.vectors.any()

    def test_reset_dimensions(self, memory):
        memory.reset_dimensions(np.array([0, 1]))
        assert not memory.vectors[:, :2].any()
        assert memory.vectors[2, 2] == 1.0

    def test_reset_dimensions_empty_noop(self, memory):
        before = memory.vectors.copy()
        memory.reset_dimensions(np.array([], dtype=np.int64))
        assert np.array_equal(memory.vectors, before)

    def test_reset_dimensions_out_of_range(self, memory):
        with pytest.raises(ValueError, match="dimension indices"):
            memory.reset_dimensions(np.array([8]))

    def test_copy_is_deep(self, memory):
        clone = memory.copy()
        clone.vectors[0, 0] = 99.0
        assert memory.vectors[0, 0] == 1.0


class TestNormCaching:
    """The versioned norm caches: hits while unchanged, fresh after EVERY
    mutator (the PR-3 cache-invalidation acceptance criterion)."""

    def _fresh(self):
        mem = AssociativeMemory(3, 8, dtype="float32")
        rng = np.random.default_rng(0)
        mem.set_vectors(rng.normal(size=(3, 8)).astype(np.float32))
        return mem, rng

    def test_cache_hit_while_unchanged(self):
        mem, _ = self._fresh()
        assert mem.class_norms() is mem.class_norms()
        assert mem.normalized() is mem.normalized()
        assert mem.normalized_native() is mem.normalized_native()

    def test_every_mutator_invalidates(self):
        mem, rng = self._fresh()
        H = rng.normal(size=(4, 8)).astype(np.float32)
        y = np.array([0, 1, 2, 0])
        mutators = [
            lambda: mem.accumulate(H, y),
            lambda: mem.update_misclassified(
                H[:2], np.array([1, 2]), np.array([0, 1]),
                np.array([0.2, 0.3]), np.array([0.6, 0.7]), 0.05,
            ),
            lambda: mem.add_to_class(1, np.ones(8, np.float32)),
            lambda: mem.bundle_columns(
                y, np.array([2, 5]),
                rng.normal(size=(4, 2)).astype(np.float32),
            ),
            lambda: mem.reset_dimensions(np.array([3])),
            lambda: mem.set_vectors(
                rng.normal(size=(3, 8)).astype(np.float32)
            ),
            lambda: mem.reset(),
            lambda: setattr(
                mem, "vectors", rng.normal(size=(3, 8)).astype(np.float32)
            ),
        ]
        for mutate in mutators:
            before = mem.version
            stale_norms = np.array(mem.class_norms(), copy=True)
            mem.normalized()
            mutate()
            assert mem.version > before
            fresh = np.linalg.norm(np.asarray(mem.vectors), axis=1,
                                   keepdims=True)
            np.testing.assert_allclose(
                np.asarray(mem.class_norms()), fresh, rtol=1e-6, atol=1e-7
            )
            expect_changed = not np.allclose(stale_norms, fresh)
            if expect_changed:
                assert not np.allclose(np.asarray(mem.class_norms()),
                                       stale_norms)

    def test_no_stale_predictions_after_mutation(self):
        mem, rng = self._fresh()
        H = rng.normal(size=(6, 8)).astype(np.float32)
        mem.similarities(H)  # warm the cache
        mem.set_vectors(rng.normal(size=(3, 8)).astype(np.float32))
        ref = AssociativeMemory(3, 8, dtype="float32")
        ref.set_vectors(np.asarray(mem.vectors))
        np.testing.assert_allclose(
            mem.similarities(H), ref.similarities(H), rtol=1e-6, atol=1e-7
        )


class TestScoreDtypeContract:
    """Scores leave as float64 *containers* computed at the storage dtype."""

    def _pair(self):
        rng = np.random.default_rng(7)
        V = rng.normal(size=(4, 16))
        H = rng.normal(size=(5, 16))
        return V, H

    def test_container_is_float64(self):
        V, H = self._pair()
        for dtype in ("float32", "float64"):
            mem = AssociativeMemory(4, 16, dtype=dtype)
            mem.set_vectors(V)
            assert mem.similarities(H).dtype == np.float64

    def test_values_computed_at_storage_dtype(self):
        V, H = self._pair()
        mem32 = AssociativeMemory(4, 16, dtype="float32")
        mem32.set_vectors(V)
        mem64 = AssociativeMemory(4, 16, dtype="float64")
        mem64.set_vectors(V)
        s32, s64 = mem32.similarities(H), mem64.similarities(H)
        # float32 memories give float32-precision values: close to the
        # float64 reference, but not bitwise equal to it.
        np.testing.assert_allclose(s32, s64, rtol=1e-5, atol=1e-6)
        assert not np.array_equal(s32, s64)
