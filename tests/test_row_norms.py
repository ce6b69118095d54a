"""The row-norm kernel and the per-version query-norm cache.

``NumpyBackend.norm(x, axis=1)`` runs a cache-blocked kernel that must equal
``np.linalg.norm`` bit for bit, and the training loops compute their cached
encoding's row norms once per version and pass them as ``query_norms``.
Every result computed with those norms must be identical to one computed
without them.
"""

import numpy as np
import pytest

import repro.core.disthd as disthd_mod
from repro.backend.base import _CHUNK_ELEMENTS
from repro.backend.numpy_backend import NumpyBackend
from repro.baselines.neuralhd import NeuralHDClassifier
from repro.baselines.onlinehd import OnlineHDClassifier
from repro.core.adaptive import adaptive_fit_iteration
from repro.core.disthd import DistHDClassifier
from repro.core.topk import partition_outcomes
from repro.hdc.memory import AssociativeMemory

BACKEND = NumpyBackend()

#: Rows per window at D=4096, so the shapes below hit each window edge.
_WINDOW_4096 = _CHUNK_ELEMENTS // 4096

SIZE_PARAMETERS = (
    "shape",
    [
        (1, 1),
        (5, 7),  # fewer rows than one window
        (3 * _WINDOW_4096 + 5, 4096),  # not a multiple of the window
        (2 * _WINDOW_4096, 4096),  # exactly two windows
        (1000, 33),
        (3, _CHUNK_ELEMENTS + 3),  # wider than the budget: 1 row/window
    ],
)
DTYPES = ("dtype", [np.float32, np.float64])


def _matrix(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    return (3.0 * rng.standard_normal(shape)).astype(dtype)


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count calls that reach ``np.linalg.norm`` (the fallback path)."""
    calls = []
    original = np.linalg.norm

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


class TestKernel:
    @pytest.mark.parametrize(*SIZE_PARAMETERS)
    @pytest.mark.parametrize(*DTYPES)
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_equals_linalg_norm(self, shape, dtype, keepdims, linalg_calls):
        x = _matrix(shape, dtype)
        got = BACKEND.norm(x, axis=1, keepdims=keepdims)
        assert linalg_calls == []  # the kernel ran
        _assert_bit_identical(
            got, np.linalg.norm(x, axis=1, keepdims=keepdims)
        )
        _assert_bit_identical(BACKEND.norm(x, axis=-1, keepdims=keepdims), got)

    @pytest.mark.parametrize(*DTYPES)
    @pytest.mark.parametrize(
        "view",
        [
            lambda x: x[::2],
            lambda x: x[:, ::3],
            lambda x: x[::-1],
            lambda x: x[1:, 2:],
        ],
        ids=["row-step", "col-step", "reversed", "offset"],
    )
    def test_c_order_strided_views(self, dtype, view, linalg_calls):
        x = view(_matrix((3 * _WINDOW_4096 + 5, 4096), dtype))
        got = BACKEND.norm(x, axis=1)
        assert linalg_calls == []
        _assert_bit_identical(got, np.linalg.norm(x, axis=1))

    @pytest.mark.parametrize(
        "x, axis",
        [
            (np.asfortranarray(_matrix((200, 300), np.float32)), 1),
            (np.asfortranarray(_matrix((200, 300), np.float64)), 1),
            (np.arange(60, dtype=np.int64).reshape(6, 10), 1),
            (_matrix((300,), np.float32), -1),
            (_matrix((40, 30), np.float32), 0),
            (_matrix((40, 30), np.float32), None),
            (_matrix((4, 5, 6), np.float64), -1),
        ],
        ids=["fortran-f32", "fortran-f64", "int", "1-d", "axis0",
             "axis-none", "3-d"],
    )
    def test_other_inputs_fall_back(self, x, axis, linalg_calls):
        got = BACKEND.norm(x, axis=axis)
        assert len(linalg_calls) == 1
        _assert_bit_identical(
            np.asarray(got), np.asarray(np.linalg.norm(x, axis=axis))
        )

    def test_cosine_similarity_matches_linalg_reference(self):
        q = _matrix((70, 256), np.float32, seed=1)
        m = _matrix((5, 256), np.float32, seed=2)
        denom = np.outer(
            np.linalg.norm(q, axis=1), np.linalg.norm(m, axis=1)
        )
        want = np.where(denom > 1e-12, (q @ m.T) / denom, 0.0)
        _assert_bit_identical(BACKEND.cosine_similarity(q, m), want)


def _memory_and_encoding(dtype=np.float32, n=300, dim=64, k=4, seed=0):
    rng = np.random.default_rng(seed)
    memory = AssociativeMemory(k, dim, dtype=dtype)
    memory.set_vectors(rng.standard_normal((k, dim)))
    encoded = rng.standard_normal((n, dim)).astype(dtype)
    labels = rng.integers(0, k, size=n)
    return memory, encoded, labels


def _windows(n, rows):
    """Slices of ``rows`` rows over ``n`` rows (one slice for ``None``)."""
    step = n if rows is None else rows
    return [slice(i, i + step) for i in range(0, n, step)]


class TestQueryNorms:
    # Norms computed once over the whole encoding and sliced with each row
    # window score like norms the window computes itself.
    @pytest.mark.parametrize(*DTYPES)
    @pytest.mark.parametrize("rows", [None, 64, 7])
    def test_similarities_and_topk(self, dtype, rows):
        memory, encoded, _ = _memory_and_encoding(dtype)
        norms = BACKEND.norm(encoded, axis=1)
        for w in _windows(len(encoded), rows):
            _assert_bit_identical(
                memory.similarities(encoded[w], query_norms=norms[w]),
                memory.similarities(encoded[w]),
            )
            for got, want in zip(
                memory.topk(encoded[w], k=3, query_norms=norms[w]),
                memory.topk(encoded[w], k=3),
            ):
                _assert_bit_identical(got, want)
            _assert_bit_identical(
                memory.predict(encoded[w], query_norms=norms[w]),
                memory.predict(encoded[w]),
            )

    @pytest.mark.parametrize("rows", [None, 50])
    def test_partition_outcomes(self, rows):
        memory, encoded, labels = _memory_and_encoding()
        norms = BACKEND.norm(encoded, axis=1)
        for w in _windows(len(encoded), rows):
            got = partition_outcomes(
                memory, encoded[w], labels[w], query_norms=norms[w]
            )
            want = partition_outcomes(memory, encoded[w], labels[w])
            for field in ("correct", "partial", "incorrect", "top1", "top2"):
                _assert_bit_identical(
                    getattr(got, field), getattr(want, field)
                )

    @pytest.mark.parametrize(*DTYPES)
    @pytest.mark.parametrize(
        "batch_size, shuffle", [(None, False), (64, False), (64, True)]
    )
    def test_adaptive_fit_iteration(self, dtype, batch_size, shuffle):
        results = []
        for use_norms in (True, False):
            memory, encoded, labels = _memory_and_encoding(dtype)
            norms = BACKEND.norm(encoded, axis=1) if use_norms else None
            accs = [
                adaptive_fit_iteration(
                    memory, encoded, labels, lr=0.1, batch_size=batch_size,
                    shuffle_rng=np.random.default_rng(3) if shuffle else None,
                    query_norms=norms,
                )
                for _ in range(3)
            ]
            results.append((accs, np.array(memory.vectors, copy=True)))
        (accs_a, vec_a), (accs_b, vec_b) = results
        assert accs_a == accs_b
        _assert_bit_identical(vec_a, vec_b)

    def test_wrong_length_raises(self):
        memory, encoded, labels = _memory_and_encoding()
        short = BACKEND.norm(encoded[:-1], axis=1)
        with pytest.raises(ValueError, match="query_norms"):
            memory.similarities(encoded, query_norms=short)
        with pytest.raises(ValueError, match="query_norms"):
            adaptive_fit_iteration(
                memory, encoded, labels, batch_size=64,
                shuffle_rng=np.random.default_rng(0), query_norms=short,
            )
        with pytest.raises(ValueError, match="query_norms"):
            partition_outcomes(memory, encoded, labels, query_norms=short)


def _count_full_encoding_norms(monkeypatch, n_rows):
    """Count ``NumpyBackend.norm`` calls on ``n_rows``-row matrices."""
    calls = []
    original = NumpyBackend.norm

    def spy(self, x, axis=None, keepdims=False):
        if np.ndim(x) == 2 and np.shape(x)[0] == n_rows:
            calls.append(axis)
        return original(self, x, axis=axis, keepdims=keepdims)

    monkeypatch.setattr(NumpyBackend, "norm", spy)
    return calls


class TestNormsOncePerVersion:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: DistHDClassifier(dim=128, iterations=5, regen_rate=0.2,
                                     convergence_patience=None, seed=0),
            lambda: NeuralHDClassifier(dim=128, iterations=5, seed=0,
                                       convergence_patience=None),
            lambda: OnlineHDClassifier(dim=128, iterations=5, seed=0,
                                       convergence_patience=None),
        ],
        ids=["disthd", "neuralhd", "onlinehd"],
    )
    def test_full_encoding_norm_runs_once_per_version(
        self, make, small_problem, monkeypatch
    ):
        train_x, train_y, _, _ = small_problem
        calls = _count_full_encoding_norms(monkeypatch, train_x.shape[0])
        clf = make().fit(train_x, train_y)
        regenerating = sum(1 for r in clf.history_ if r.regenerated)
        if not isinstance(clf, OnlineHDClassifier):
            assert regenerating > 0
        assert len(calls) == 1 + regenerating
        assert set(calls) == {1}

    def test_cached_norms_leave_the_fit_unchanged(
        self, small_problem, monkeypatch
    ):
        """A fit whose passes recompute every norm ends bit-identical."""
        train_x, train_y, test_x, _ = small_problem

        def fit():
            clf = DistHDClassifier(dim=256, iterations=6, regen_rate=0.3,
                                   batch_size=40, seed=4,
                                   convergence_patience=None)
            clf.fit(train_x, train_y)
            return clf

        cached = fit()

        def without_norms(fn):
            def call(*args, query_norms=None, **kwargs):
                return fn(*args, **kwargs)
            return call

        for name in ("adaptive_fit_iteration", "partition_outcomes"):
            monkeypatch.setattr(
                disthd_mod, name, without_norms(getattr(disthd_mod, name))
            )
        fresh = fit()
        assert cached.history_.total_regenerated > 0
        assert (cached.history_.total_regenerated
                == fresh.history_.total_regenerated)
        _assert_bit_identical(
            np.asarray(cached.memory_.vectors),
            np.asarray(fresh.memory_.vectors),
        )
        _assert_bit_identical(
            np.asarray(cached.encoder_.base_vectors),
            np.asarray(fresh.encoder_.base_vectors),
        )
        _assert_bit_identical(
            cached.decision_scores(test_x), fresh.decision_scores(test_x)
        )
