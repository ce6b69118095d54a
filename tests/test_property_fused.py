"""Property tests for the fused, cache-aware kernels (PR 3).

Guarantees pinned here:

- the fused chunked Algorithm-2 scoring (``fused_dimension_scores`` /
  ``ArrayBackend.fused_absdiff_colsum``) matches the dense reference
  (``distance_matrices`` + normalise + column-sum) to tight tolerance
  across dtypes, both incorrect rules, every normalization and arbitrary
  scratch chunks (forced by monkeypatching
  :func:`repro.backend.base.auto_chunk_rows`), on every backend
  :func:`~repro.backend.list_backends` names;
- ``similarities`` / ``predict`` / ``topk`` / encoder ``encode`` called
  on row windows agree with one call on the whole batch;
- the fused path allocates no ``(n, D)`` distance temporaries — its traced
  allocation peak stays far below one dense distance matrix;
- the cache-aware column kernels (``set_columns`` row windows,
  ``scatter_add_cells`` one-hot grouping) equal their naive forms.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backend.base as window_rule
from repro.backend import get_backend, list_backends
from repro.core.regeneration import (
    _normalize_matrix,
    distance_matrices,
    fused_dimension_scores,
    select_undesired_dimensions,
    undesired_from_scores,
)
from repro.core.topk import partition_outcomes
from repro.hdc.encoders.rbf import RBFEncoder
from repro.hdc.memory import AssociativeMemory


def make_problem(seed, n=160, dim=48, k=5, dtype=np.float32, backend="numpy"):
    """A trained-ish memory plus encoded batch with non-trivial outcomes."""
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(n, dim)).astype(dtype)
    y = rng.integers(0, k, size=n)
    memory = AssociativeMemory(k, dim, dtype=dtype, backend=backend)
    memory.accumulate(rng.normal(size=(n, dim)).astype(dtype), y)
    encoded = memory.backend.asarray(H)
    partition = partition_outcomes(memory, encoded, y)
    return encoded, y, partition, memory


def force_chunk_rows(patch, rows):
    """Make the fused kernels stream their scratch ``rows`` rows at a
    time (the NumPy kernels look the rule up at call time)."""
    patch.setattr(window_rule, "auto_chunk_rows", lambda dim: rows)


def windows(X, rows):
    """``X`` split into consecutive ``rows``-row windows."""
    return [X[i:i + rows] for i in range(0, len(X), rows)]


def dense_scores(encoded, y, partition, memory, rule, normalization):
    """The dense reference: matrices → row-normalise → float64 column sums."""
    M, N = distance_matrices(encoded, y, partition, memory, incorrect_rule=rule)
    Mn = _normalize_matrix(M, normalization)
    Nn = _normalize_matrix(N, normalization)
    m = Mn.sum(axis=0, dtype=np.float64) if Mn.size else None
    n_ = Nn.sum(axis=0, dtype=np.float64) if Nn.size else None
    return m, n_


class TestFusedMatchesDense:
    @pytest.mark.parametrize("backend", list_backends())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rule", ["prose", "algorithm-box"])
    @pytest.mark.parametrize("normalization", ["l2", "l1", "minmax", "none"])
    def test_scores_match(self, backend, dtype, rule, normalization,
                          monkeypatch):
        encoded, y, partition, memory = make_problem(
            7, dtype=dtype, backend=backend
        )
        assert partition.partial.size and partition.incorrect.size
        ref_m, ref_n = dense_scores(
            encoded, y, partition, memory, rule, normalization
        )
        force_chunk_rows(monkeypatch, 13)
        got_m, got_n = fused_dimension_scores(
            encoded, y, partition, memory,
            incorrect_rule=rule, normalization=normalization,
        )
        rtol = 2e-4 if dtype == np.float32 else 1e-10
        np.testing.assert_allclose(got_m, ref_m, rtol=rtol, atol=1e-6)
        np.testing.assert_allclose(got_n, ref_n, rtol=rtol, atol=1e-6)

    @pytest.mark.parametrize("backend", list_backends())
    def test_selected_dims_match(self, backend):
        encoded, y, partition, memory = make_problem(11, backend=backend)
        M, N = distance_matrices(encoded, y, partition, memory)
        ref = select_undesired_dimensions(
            M, N, regen_rate=0.25, dim=memory.dim
        )
        m_s, n_s = fused_dimension_scores(encoded, y, partition, memory)
        got = undesired_from_scores(m_s, n_s, regen_rate=0.25)
        assert np.array_equal(ref, got)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        chunk=st.integers(1, 200),
        rule=st.sampled_from(["prose", "algorithm-box"]),
    )
    def test_chunk_size_never_changes_scores(self, seed, chunk, rule):
        encoded, y, partition, memory = make_problem(seed, n=120, dim=32)
        ref_m, ref_n = fused_dimension_scores(
            encoded, y, partition, memory, incorrect_rule=rule,
        )
        with pytest.MonkeyPatch.context() as patch:
            force_chunk_rows(patch, chunk)
            got_m, got_n = fused_dimension_scores(
                encoded, y, partition, memory, incorrect_rule=rule,
            )
        for ref, got in ((ref_m, got_m), (ref_n, got_n)):
            assert (ref is None) == (got is None)
            if ref is not None:
                np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-7)

    def test_empty_outcome_sets_are_none(self):
        encoded, y, partition, memory = make_problem(3)
        partition.partial = np.empty(0, np.int64)
        m_s, n_s = fused_dimension_scores(encoded, y, partition, memory)
        assert m_s is None and n_s is not None
        assert undesired_from_scores(
            m_s, n_s, regen_rate=0.2
        ).size == 0  # intersection with the empty side is a no-op

    def test_bad_terms_rejected(self):
        b = get_backend("numpy")
        H = np.ones((4, 8), np.float32)
        C = np.ones((2, 8), np.float32)
        with pytest.raises(ValueError):
            b.fused_absdiff_colsum(H, [0, 1], C, [], [])
        with pytest.raises(ValueError):
            b.fused_absdiff_colsum(
                H, [0, 1], C, [np.array([0, 1, 0])], [1.0]
            )


class TestFusedAllocatesNoDenseTemporaries:
    def test_traced_peak_far_below_dense_matrix(self):
        n, dim = 4000, 1024
        encoded, y, partition, memory = make_problem(5, n=n, dim=dim)
        # Score every sample through the 3-term rule — worst case load.
        rows = np.arange(n, dtype=np.int64)
        top2, _ = memory.topk(encoded, k=2)
        terms = (y.astype(np.int64), top2[:, 0], top2[:, 1])
        C = memory.normalized_native()
        b = memory.backend
        dense_bytes = n * dim * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            b.fused_absdiff_colsum(
                encoded, rows, C, terms, (1.0, -1.0, -0.25)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The streamed kernel's peak must stay far below even ONE dense
        # (n, D) distance matrix (the dense path materialises several).
        assert peak < 0.5 * dense_bytes, (
            f"fused peak {peak} bytes vs dense matrix {dense_bytes} bytes"
        )


class TestChunkedQueriesMatchUnchunked:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_similarities_predict_topk(self, chunk):
        encoded, y, partition, memory = make_problem(23)
        ref = memory.similarities(encoded)
        parts = windows(encoded, chunk)
        # Equal up to BLAS accumulation-order rounding: small chunks hit
        # gemv instead of gemm, which sums in a different order.
        np.testing.assert_allclose(
            np.concatenate([memory.similarities(p) for p in parts]), ref,
            rtol=1e-5, atol=1e-7,
        )
        np.testing.assert_array_equal(
            np.concatenate([memory.predict(p) for p in parts]),
            memory.predict(encoded),
        )
        ref_l, ref_s = memory.topk(encoded, 2)
        tops = [memory.topk(p, 2) for p in parts]
        got_l = np.concatenate([labels for labels, _ in tops])
        got_s = np.concatenate([scores for _, scores in tops])
        np.testing.assert_array_equal(got_l, ref_l)
        np.testing.assert_allclose(got_s, ref_s, rtol=1e-5, atol=1e-7)

    def test_bad_chunk_rejected(self):
        # Windows come from the caller's slices only: the removed
        # ``chunk_size`` is refused, not silently ignored.
        encoded, y, partition, memory = make_problem(29)
        with pytest.raises(TypeError, match="chunk_size"):
            memory.similarities(encoded, chunk_size=0)

    @pytest.mark.parametrize("chunk", [1, 9, 50])
    def test_encoder_encode_chunked(self, chunk):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(37, 6))
        enc = RBFEncoder(6, 24, seed=0, dtype="float32")
        ref = np.asarray(enc.encode(X))
        got = np.concatenate(
            [np.asarray(enc.encode(part)) for part in windows(X, chunk)]
        )
        np.testing.assert_array_equal(got, ref)

    def test_disthd_chunked_decision_scores(self, monkeypatch):
        from repro.core.disthd import DistHDClassifier

        rng = np.random.default_rng(37)
        X = rng.normal(size=(80, 5))
        y = rng.integers(0, 3, size=80)
        ref = DistHDClassifier(
            dim=64, iterations=3, seed=0
        ).fit(X, y)
        force_chunk_rows(monkeypatch, 16)
        chunked = DistHDClassifier(
            dim=64, iterations=3, seed=0
        ).fit(X, y)
        np.testing.assert_allclose(
            np.concatenate(
                [chunked.decision_scores(part) for part in windows(X, 16)]
            ),
            ref.decision_scores(X),
            rtol=1e-6, atol=1e-7,
        )
        np.testing.assert_array_equal(chunked.predict(X), ref.predict(X))


class TestCacheAwareColumnKernels:
    # Row strides that are 4 KiB multiples (1024 float32/float64, 512
    # float64) take the 8-row window; the others take a window of ~128 KiB
    # of rows, at least 16 (768-4000 are the widths its rule was measured
    # at).
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "width", [40, 512, 768, 1000, 1024, 1100, 1500, 4000]
    )
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300))
    def test_set_columns_matches_naive(self, width, dtype, seed, n):
        rng = np.random.default_rng(seed)
        b = get_backend("numpy")
        x = rng.normal(size=(n, width)).astype(dtype)
        ref = x.copy()
        cols = np.unique(rng.integers(0, width, size=max(11, width // 2)))
        vals = rng.normal(size=(n, cols.size)).astype(dtype)
        b.set_columns(x, cols, vals)
        ref[:, cols] = vals
        np.testing.assert_array_equal(x, ref)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), m=st.integers(1, 200))
    def test_scatter_add_cells_matches_addat(self, seed, m):
        rng = np.random.default_rng(seed)
        b = get_backend("numpy")
        k, dim = 6, 32
        rows = rng.integers(0, k, size=m)
        # Deliberately NOT unique: duplicate column indices must accumulate
        # under the fast path exactly like np.add.at does.
        cols = rng.integers(0, dim, size=9)
        vals = rng.normal(size=(m, cols.size)).astype(np.float32)
        got = np.zeros((k, dim), np.float32)
        b.scatter_add_cells(got, rows, cols, vals)
        ref = np.zeros((k, dim), np.float32)
        np.add.at(ref, (rows[:, None], cols[None, :]), vals)
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16), m=st.integers(7, 200), alias=st.booleans()
    )
    def test_scatter_add_cells_increasing_columns_exact(self, seed, m, alias):
        # Strictly increasing columns (regenerated dimensions) skip add.at;
        # each cell still gets its grouped sum added once, bit for bit.  A
        # leading negative index aliasing the last column keeps the order
        # strictly increasing, yet both contributions must land, as add.at
        # lands them.
        rng = np.random.default_rng(seed)
        b = get_backend("numpy")
        k, dim = 6, 64
        rows = rng.integers(0, k, size=m)
        cols = np.sort(rng.choice(dim, size=20, replace=False))
        if alias:
            cols = np.concatenate([[cols[-1] - dim], cols])
        vals = rng.normal(size=(m, cols.size)).astype(np.float32)
        start = rng.normal(size=(k, dim)).astype(np.float32)
        got = start.copy()
        b.scatter_add_cells(got, rows, cols, vals)
        onehot = np.zeros((k, m), np.float32)
        onehot[rows, np.arange(m)] = 1.0
        ref = start.copy()
        np.add.at(ref, (np.arange(k)[:, None], cols[None, :]), onehot @ vals)
        np.testing.assert_array_equal(got, ref)

    def test_scatter_add_cells_broadcast_values(self):
        # (1, n_cols) values broadcast across all updates, as add.at does.
        b = get_backend("numpy")
        rows = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        cols = np.array([1, 3])
        got = np.zeros((2, 5), np.float32)
        b.scatter_add_cells(got, rows, cols, np.ones((1, 2), np.float32))
        ref = np.zeros((2, 5), np.float32)
        np.add.at(ref, (rows[:, None], cols[None, :]),
                  np.ones((1, 2), np.float32))
        np.testing.assert_array_equal(got, ref)

    def test_fused_colsum_integer_hypervectors(self):
        # Bipolar int8 inputs must match the float reference (the NumPy
        # override delegates to the promoting generic implementation).
        rng = np.random.default_rng(41)
        b = get_backend("numpy")
        H = rng.choice([-1, 1], size=(60, 16)).astype(np.int8)
        C = rng.choice([-1, 1], size=(3, 16)).astype(np.int8)
        rows = np.arange(60)
        terms = (rng.integers(0, 3, 60), rng.integers(0, 3, 60))
        got = b.fused_absdiff_colsum(H, rows, C, terms, (1.0, -0.25))
        ref = b.fused_absdiff_colsum(
            H.astype(np.float64), rows, C.astype(np.float64),
            terms, (1.0, -0.25),
        )
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
