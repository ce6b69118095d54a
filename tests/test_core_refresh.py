"""The windowed column refresh after a regeneration.

``repro.core.regeneration.refresh_columns`` walks row windows: it encodes
the regenerated dims, scatters them into the cached encoding, recomputes
the window's row norms and re-bundles its columns.  What it keeps, against
a full-batch ``encode_dims`` / ``set_columns`` / row-norm refresh of a
training encoding:

- at float32 the cached encoding and its row norms end byte-identical, at
  every window budget down to the smallest window a dense GEMM rounds
  like the full batch, with OpenBLAS threaded or pinned (CI runs this
  file both ways).  This identity is a property of the BLAS build, not
  of NumPy: it was verified on NumPy 2.4 with OpenBLAS 0.3.31 running
  its SkylakeX sgemm kernels.  A BLAS whose kernels block the rows
  differently may round a window's edge cells apart from the full
  batch, which reads as a platform fact, not a regression of the
  windowing (docs/performance.md, "Training working set");
- at float64 a dense GEMM rounds some cells of a window's last rows with
  an edge kernel, so those cells agree to the dot-product rounding bound;
  the structured Fastfood encoder stays byte-identical at both dtypes;
- the re-bundled class memory equals a full-batch ``bundle_columns`` to
  summation-order rounding;
- no ``(n, len(dims))`` block exists, so a DistHD fit's traced allocation
  peak stays close to the cached encoding itself;
- a registered family that brings its own ``encode_dims`` (the encoder
  contract) is refreshed through it, one row window per call.
"""

import tracemalloc

import numpy as np
import pytest

import repro.backend.base as window_rule
import repro.hdc.encoders.registry as registry
from repro import DistHDClassifier, load_dataset
from repro.backend import get_backend
from repro.core.regeneration import refresh_columns, refresh_windows
from repro.hdc.encoders.base import RegenerableEncoder
from repro.hdc.encoders.rbf import RBFEncoder
from repro.hdc.encoders.structured import FastfoodRBFEncoder
from repro.hdc.memory import AssociativeMemory

BACKEND = get_backend("numpy")
N_CLASSES = 5
#: Window budgets: the smallest legal window (rows · width at the exact
#: GEMM floor), a small one and the default.
BUDGETS = [window_rule._EXACT_GEMM_ELEMENTS, 1 << 14, None]
BUDGET_IDS = ["floor", "16k", "default"]
#: The tests keep inputs small: a window layout that would need more rows
#: than this is checked at this many rows (then usually one window).
MAX_ROWS = 900


def _widths(dim):
    """Regenerated-dim counts from a handful up to about half of ``dim``;
    none is a multiple of 8, which the float64 GEMM kernels treat apart."""
    return [5, 43, dim // 8 + 3, dim // 2 - 1]


def _tail_rows(width):
    """Rows whose window layout leaves a one-row tail to merge."""
    start, stop = refresh_windows(MAX_ROWS, width)[0]
    return min(2 * (stop - start) + 1, MAX_ROWS)


def _refresh_both_ways(encoder, width, seed):
    """Encode as a fit does (a fresh encoder, so a row-major encoding),
    regenerate ``width`` dims, then refresh one copy window by window and
    one as a full batch.

    Returns ``(X, dims, (encoded, norms, memory), (ref, ref_norms,
    ref_memory))``.
    """
    rng = np.random.default_rng(seed)
    n = _tail_rows(width)
    X = rng.normal(size=(n, encoder.n_features))
    labels = rng.integers(0, N_CLASSES, size=n)
    encoded = encoder.encode(X)
    norms = BACKEND.norm(encoded, axis=1)
    dims = np.sort(rng.choice(encoder.dim, size=width, replace=False))
    encoder.regenerate(dims)

    ref = encoded.copy()
    ref_memory = AssociativeMemory(N_CLASSES, encoder.dim, dtype=encoder.dtype)
    fresh = encoder.encode_dims(X, dims)
    BACKEND.set_columns(ref, dims, fresh)
    ref_memory.bundle_columns(labels, dims, fresh)
    ref_norms = BACKEND.norm(ref, axis=1)

    memory = AssociativeMemory(N_CLASSES, encoder.dim, dtype=encoder.dtype)
    refresh_columns(
        encoder, X, dims, encoded, norms, memory=memory, labels=labels
    )
    return X, dims, (encoded, norms, memory), (ref, ref_norms, ref_memory)


def _check_memory(memory, ref_memory, n, dtype):
    # Each re-bundled cell sums ≤ n entries of magnitude ≤ 1 in another
    # order than the reference.
    eps = float(np.finfo(dtype).eps)
    np.testing.assert_allclose(
        memory.numpy_vectors(), ref_memory.numpy_vectors(),
        rtol=0, atol=2 * n * eps,
    )


def _check_bytes(encoder, width, seed):
    X, _, (encoded, norms, memory), (ref, ref_norms, ref_memory) = (
        _refresh_both_ways(encoder, width, seed)
    )
    build = "; verified on NumPy 2.4 / OpenBLAS 0.3.31 SkylakeX kernels"
    assert encoded.tobytes() == ref.tobytes(), "encoding bytes" + build
    assert norms.tobytes() == ref_norms.tobytes(), "norm bytes" + build
    _check_memory(memory, ref_memory, X.shape[0], encoder.dtype)


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("dim", [1024, 4096])
@pytest.mark.parametrize("n_features", [54, 561])
def test_windowed_refresh_byte_identical_at_float32(
    monkeypatch, n_features, dim, budget
):
    if budget is not None:
        monkeypatch.setattr(window_rule, "_REFRESH_ELEMENTS", budget)
    for seed, width in enumerate(_widths(dim)):
        encoder = RBFEncoder(n_features, dim, seed=seed, dtype="float32")
        _check_bytes(encoder, width, seed)


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("dim", [1024, 4096])
@pytest.mark.parametrize("n_features", [54, 561])
def test_windowed_refresh_float64_agrees_to_rounding(
    monkeypatch, n_features, dim, budget
):
    if budget is not None:
        monkeypatch.setattr(window_rule, "_REFRESH_ELEMENTS", budget)
    eps = float(np.finfo(np.float64).eps)
    for seed, width in enumerate(_widths(dim)):
        encoder = RBFEncoder(n_features, dim, seed=seed, dtype="float64")
        X, dims, (encoded, norms, memory), (ref, ref_norms, ref_memory) = (
            _refresh_both_ways(encoder, width, seed)
        )
        untouched = np.setdiff1d(np.arange(dim), dims)
        assert np.array_equal(encoded[:, untouched], ref[:, untouched])
        # Two summation orders of the (q + 1)-term pre-activation
        # 2x·b + φ differ by at most twice γ(q+1)·Σ|terms|; the activation
        # ½[sin(·) − sin φ] is ½-Lipschitz, plus a few ulps of its own.
        terms = n_features + 1
        gamma = terms * eps / 2 / (1 - terms * eps / 2)
        base = np.abs(encoder.base_vectors[dims])
        bound = 2 * gamma * (np.abs(2 * X) @ base.T + 2 * np.pi) + 8 * eps
        assert np.all(np.abs(encoded[:, dims] - ref[:, dims]) <= bound)
        norm_bound = np.sqrt((bound**2).sum(axis=1)) + 4 * dim * eps * ref_norms
        assert np.all(np.abs(norms - ref_norms) <= norm_bound)
        _check_memory(memory, ref_memory, X.shape[0], np.float64)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_windowed_refresh_fastfood_byte_identical(monkeypatch, dtype):
    monkeypatch.setattr(
        window_rule, "_REFRESH_ELEMENTS", window_rule._EXACT_GEMM_ELEMENTS
    )
    for seed, width in enumerate(_widths(1024)):
        encoder = FastfoodRBFEncoder(54, 1024, seed=seed, dtype=dtype)
        _check_bytes(encoder, width, seed)


class TestRefreshWindows:
    @pytest.mark.parametrize("width", [1, 3, 40, 512, 2048, 5000])
    @pytest.mark.parametrize("n", [1, 2, 5, 97, 2805])
    def test_windows_tile_the_rows(self, n, width):
        windows = refresh_windows(n, width)
        assert windows[0][0] == 0 and windows[-1][1] == n
        for (_, stop), (start, _) in zip(windows, windows[1:]):
            assert stop == start
        if len(windows) > 1:
            # Every window, the merged tail included, is one whose GEMM
            # rounds like the full batch's.
            for start, stop in windows:
                rows = stop - start
                assert rows >= 2
                assert rows * width >= window_rule._EXACT_GEMM_ELEMENTS

    def test_short_tail_joins_the_window_before(self):
        start, stop = refresh_windows(10**5, 2100)[0]
        rows = stop - start
        windows = refresh_windows(2 * rows + 1, 2100)
        assert windows == [(0, rows), (rows, 2 * rows + 1)]

    def test_windows_hold_the_budget(self):
        start, stop = refresh_windows(10**5, 2100)[0]
        assert (stop - start) * 2100 <= window_rule._REFRESH_ELEMENTS


def test_fit_allocation_peak_near_the_cached_encoding():
    """At the perfbench train point (pamap2 analog at scale 0.012, 2805
    rows, D=4096, 30% union regeneration) a fit's traced allocation peak
    stays within 1.25x the float32 cached encoding; building the refresh
    as one block, and Algorithm 1's update as scaled copies, read 1.62x."""
    data = load_dataset("pamap2", scale=0.012, seed=0)
    settings = dict(
        dim=4096, regen_rate=0.3, selection="union", iterations=10,
        convergence_patience=None, seed=5,
    )
    encoding_bytes = data.train_x.shape[0] * settings["dim"] * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        clf = DistHDClassifier(**settings).fit(data.train_x, data.train_y)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert clf.history_.total_regenerated > 0
    assert peak <= 1.25 * encoding_bytes, peak / encoding_bytes


class _DelegatingRBF(RegenerableEncoder):
    """A family written to the encoder contract alone, as a
    ``register_encoder`` user writes one: its own ``_encode``,
    ``encode_dims``, ``regenerate`` and ``effective_dim`` (delegating to a
    dense RBF encoder), recording the rows of every ``encode_dims`` call."""

    def __init__(self, n_features, dim, **knobs):
        self.inner = RBFEncoder(n_features, dim, **knobs)
        super().__init__(
            n_features, dim, dtype=self.inner.dtype, backend=self.inner.backend
        )
        self.rows_per_call = []

    def _encode(self, X):
        return self.inner._encode(X)

    def encode_dims(self, X, dims):
        self.rows_per_call.append(int(X.shape[0]))
        return self.inner.encode_dims(X, dims)

    def regenerate(self, dims):
        self.inner.regenerate(dims)

    def effective_dim(self):
        return self.inner.effective_dim()


def test_registered_family_refreshes_through_its_own_encode_dims(monkeypatch):
    monkeypatch.setitem(registry._REGISTRY, "delegating-rbf", _DelegatingRBF)
    monkeypatch.setattr(window_rule, "_REFRESH_ELEMENTS", 1 << 13)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(401, 12)).astype(np.float32)
    y = (X[:, :3] @ rng.normal(size=3) > 0).astype(np.int64) + 2 * (
        X[:, 3] > 0.5
    )
    settings = dict(
        dim=256, regen_rate=0.3, iterations=4, convergence_patience=None,
        seed=6,
    )
    clf = DistHDClassifier(encoder="delegating-rbf", **settings).fit(X, y)
    ref = DistHDClassifier(encoder="rbf", **settings).fit(X, y)
    calls = clf.encoder_.rows_per_call
    assert clf.history_.total_regenerated > 0
    # Each refresh covers every row once, one call per window; wide
    # refreshes take several windows.
    assert sum(calls) % X.shape[0] == 0 and min(calls) < X.shape[0]
    np.testing.assert_array_equal(
        clf.memory_.numpy_vectors(), ref.memory_.numpy_vectors()
    )
    np.testing.assert_array_equal(clf.predict(X), ref.predict(X))
