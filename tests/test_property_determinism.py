"""The encode determinism contract, checked at the shapes that are served.

What the code keeps (docs/performance.md, "Encode determinism"):

- a dense :class:`RBFEncoder` row encodes bit for bit alike in every row
  window of at least two rows, so a batch encoded window by window and
  concatenated is identical to the batch encoded at once;
- a lone row (a one-row window, a one-row tail, a one-row request) goes
  through a different BLAS kernel and agrees with the same row inside a
  batch to float rounding only; its packed sign bits equal the batch's
  except at cells whose magnitude is within that rounding bound;
- the structured :class:`FastfoodRBFEncoder` fixes every GEMM's
  per-sample shape, so its rows are bit-identical at any window,
  lone rows included.

Shapes: the pamap2 (54 features) and ucihar (561) analogs at D = 4096,
the served dimensionality, at both dtypes.

Artifact inference walks the training refresh's row windows
(:func:`repro.backend.base.refresh_windows`; 128 rows at D = 4096) and
keeps, against scoring the whole batch as one window:

- a packed 1-bit artifact's scores bit for bit at every window layout:
  the encoding windows hold at least two rows, so their sign bits are the
  batch's, and XOR + popcount is exact;
- an unpacked (1- or 8-bit) artifact's cosine scores bit for bit at the
  perfbench shape, and to the dot product's rounding bound at any layout:
  the BLAS picks its GEMM kernel by size, and OpenBLAS 0.3.31 rounds a
  window of fewer than ~1e6 multiply-adds with another kernel than a
  large batch (a row's unpacked score already depended on its batch's
  size before inference was windowed);
- a predict's allocation peak of one window, not of the ``(n, D)``
  encoding.

After a regeneration the structured encoders gather their output row-major
(``np.take``), so a whole-batch encode stays C-ordered like a windowed one
and scores bit for bit alike.
"""

import copy
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backend.base as window_rule
from repro.backend.base import refresh_windows
from repro.deploy import QuantizedHDCModel
from repro.hdc.encoders.rbf import RBFEncoder
from repro.hdc.encoders.structured import (
    FastfoodRBFEncoder,
    StructuredProjectionEncoder,
)
from repro.hdc.memory import AssociativeMemory
from repro.hdc.packed import pack_sign_rows, unpack_rows

DIM = 4096
CONFIGS = [
    (kind, n_features, dtype)
    for kind in ("rbf", "fastfood")
    for n_features in (54, 561)
    for dtype in ("float32", "float64")
]
EXAMPLES = settings(max_examples=6, deadline=None)


@functools.lru_cache(maxsize=None)
def _encoder(kind, n_features, dtype):
    cls = RBFEncoder if kind == "rbf" else FastfoodRBFEncoder
    return cls(n_features, DIM, seed=11, dtype=dtype)


def _encode(encoder, X):
    return np.asarray(encoder.encode(X))


def _encode_windows(encoder, X, rows):
    """``X`` encoded ``rows`` rows at a time and concatenated, as
    :class:`~repro.deploy.StagedModel` and a fleet batch encode it."""
    return np.concatenate(
        [_encode(encoder, X[i:i + rows]) for i in range(0, len(X), rows)]
    )


def _rows(seed, n_rows, n_features):
    return np.random.default_rng(seed).normal(size=(n_rows, n_features))


def _rounding_bound(encoder, X):
    """Per-cell bound on how far two roundings of one row's encoding may
    differ.  The pre-activation ``2x·b + φ`` is a (q + 1)-term sum; two
    summation orders differ by at most twice the textbook bound
    ``γ(q+1) · Σ|terms|``, the activation ``½[sin(·) − sin φ]`` is
    ½-Lipschitz in it, and each side rounds the activation itself within a
    few units in the last place."""
    eps = float(np.finfo(encoder.dtype).eps)
    terms = X.shape[1] + 1
    unit = eps / 2
    gamma = terms * unit / (1 - terms * unit)
    base = np.abs(np.asarray(encoder.base_vectors, dtype=np.float64))
    magnitude = np.abs(2.0 * X) @ base.T + 2.0 * np.pi
    return 2.0 * gamma * magnitude + 8.0 * eps


def _lone_rows_agree(encoder, kind, X, lone, batched):
    """``lone`` rows (encoded alone) against the same rows of a batch."""
    if kind == "fastfood":
        np.testing.assert_array_equal(lone, batched)
        return
    bound = _rounding_bound(encoder, X)
    gap = np.abs(lone.astype(np.float64) - batched)
    assert np.all(gap <= bound), float((gap - bound).max())


windows = st.tuples(st.integers(0, 2**32 - 1), st.integers(2, 24))


@pytest.mark.parametrize("kind,n_features,dtype", CONFIGS)
class TestEncodeDeterminism:
    @EXAMPLES
    @given(case=windows, data=st.data())
    def test_windows_of_two_or_more_rows_bit_identical(
        self, kind, n_features, dtype, case, data
    ):
        seed, n_rows = case
        encoder = _encoder(kind, n_features, dtype)
        X = _rows(seed, n_rows, n_features)
        full = _encode(encoder, X)
        window = data.draw(
            st.integers(2, n_rows).filter(lambda c: n_rows % c != 1),
            label="window",
        )
        np.testing.assert_array_equal(
            _encode_windows(encoder, X, window), full
        )
        start = data.draw(st.integers(0, n_rows - 2), label="start")
        stop = data.draw(st.integers(start + 2, n_rows), label="stop")
        np.testing.assert_array_equal(
            _encode(encoder, X[start:stop]), full[start:stop]
        )

    @EXAMPLES
    @given(case=windows, data=st.data())
    def test_lone_rows_agree_to_rounding(
        self, kind, n_features, dtype, case, data
    ):
        seed, n_rows = case
        encoder = _encoder(kind, n_features, dtype)
        X = _rows(seed, n_rows, n_features)
        full = _encode(encoder, X)
        # One-row windows: every row is lone.
        _lone_rows_agree(
            encoder, kind, X, _encode_windows(encoder, X, 1), full
        )
        # A window size that leaves a one-row tail: only the tail is lone.
        window = data.draw(
            st.sampled_from(
                [c for c in range(2, n_rows) if n_rows % c == 1] or [None]
            ),
            label="window",
        )
        if window is not None:
            windowed = _encode_windows(encoder, X, window)
            np.testing.assert_array_equal(windowed[:-1], full[:-1])
            _lone_rows_agree(encoder, kind, X[-1:], windowed[-1:], full[-1:])

    @EXAMPLES
    @given(case=windows, data=st.data())
    def test_lone_row_sign_bits(self, kind, n_features, dtype, case, data):
        seed, n_rows = case
        encoder = _encoder(kind, n_features, dtype)
        X = _rows(seed, n_rows, n_features)
        full = _encode(encoder, X)
        row = data.draw(st.integers(0, n_rows - 1), label="row")
        lone = _encode(encoder, X[row:row + 1])
        flipped = unpack_rows(
            pack_sign_rows(lone) ^ pack_sign_rows(full[row:row + 1]), DIM
        ).astype(bool)
        if kind == "fastfood":
            assert not flipped.any()
            return
        bound = _rounding_bound(encoder, X[row:row + 1])
        near_zero = np.abs(full[row:row + 1]) <= bound
        assert not np.any(flipped & ~near_zero)


# ------------------------------------------------------------- inference


N_CLASSES = 5
#: The three artifact kinds a fitted classifier freezes into.
ARTIFACTS = {
    "packed": dict(bits=1, packed=True),
    "1-bit": dict(bits=1),
    "8-bit": dict(bits=8),
}


class _Fitted:
    """What :class:`QuantizedHDCModel` freezes: an encoder, a class memory
    (random here: windowing is about the arithmetic, not the accuracy)
    and the labels."""

    def __init__(self, encoder, seed=3):
        rng = np.random.default_rng(seed)
        self.encoder_ = encoder
        self.memory_ = AssociativeMemory(
            N_CLASSES, encoder.dim, dtype=encoder.dtype
        )
        self.memory_.set_vectors(rng.normal(size=(N_CLASSES, encoder.dim)))
        self.classes_ = 10 * np.arange(N_CLASSES)


def _artifacts(kind, n_features, dtype):
    """The three artifacts of one fitted state (each freezes its own copy
    of the encoder, so they are built per test, not cached)."""
    fitted = _Fitted(_encoder(kind, n_features, dtype))
    return {
        name: QuantizedHDCModel(fitted, **knobs)
        for name, knobs in ARTIFACTS.items()
    }


def _scores(model, X):
    """``staged_scores`` of ``model``, and the row windows its encoder
    saw."""
    model = copy.copy(model)
    seen = []

    def encode(window):
        seen.append(len(window))
        return type(model).encode(model, window)

    model.encode = encode
    return model.staged_scores(X)[0], seen


def _dot_rounding_bound(dtype):
    """Two summation orders of a D-term float64 dot product differ by at
    most ``2·γ(D)·|q|·|c|`` (Cauchy-Schwarz), so two cosines by ``2·γ(D)``,
    plus a few ulps of the norms and the division."""
    unit = float(np.finfo(np.float64).eps) / 2
    gamma = DIM * unit / (1 - DIM * unit)
    return 2 * gamma + 8 * float(np.finfo(dtype).eps)


#: ``(seed, window rows, full windows, tail rows)``: a one-row tail joins
#: the last window, a longer one is a window of its own.
layouts = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(2, 16),
    st.integers(1, 4),
    st.integers(0, 15),
)


@pytest.mark.parametrize("kind,n_features,dtype", CONFIGS)
class TestInferenceWindows:
    @EXAMPLES
    @given(case=layouts)
    def test_scores_match_the_whole_batch(self, kind, n_features, dtype,
                                          case):
        seed, rows, full, tail = case
        tail %= rows
        n = rows * full + tail
        X = _rows(seed, n, n_features)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(window_rule, "_REFRESH_ELEMENTS", rows * DIM)
            expected = [stop - start for start, stop in refresh_windows(n, DIM)]
            assert expected == (
                [rows] * (full - 1) + [rows + 1] if tail == 1
                else [rows] * full + ([tail] if tail else [])
            )
            for artifact, model in _artifacts(kind, n_features, dtype).items():
                windowed, seen = _scores(model, X)
                assert seen == expected
                whole = model.score_encoded(model.encode(X))
                if artifact == "packed":
                    assert windowed.tobytes() == whole.tobytes()
                else:
                    np.testing.assert_allclose(
                        windowed, whole, rtol=0,
                        atol=_dot_rounding_bound(dtype),
                    )

    def test_perfbench_shape_bit_identical(self, kind, n_features, dtype):
        """The 1380 held-out rows of the perfbench point: eleven windows,
        the last of 100 rows, each scored bit for bit as the whole batch,
        unpacked artifacts included."""
        X = _rows(71, 1380, n_features)
        for artifact, model in _artifacts(kind, n_features, dtype).items():
            windowed, seen = _scores(model, X)
            assert seen == [128] * 10 + [100]
            whole = model.score_encoded(model.encode(X))
            assert windowed.tobytes() == whole.tobytes(), artifact
            np.testing.assert_array_equal(
                model.predict(X), model.classes_[np.argmax(whole, axis=1)]
            )


def test_packed_predict_peak_is_one_window():
    """At the perfbench shape (54 features, D = 4096, float32, packed
    1-bit) a predict's traced allocation peak is one window's working set,
    under 8 MiB and the same at 1380 and 4 x 1380 rows; scoring the whole
    batch at once peaked at 27.6 and 110.5 MiB."""
    model = QuantizedHDCModel(
        _Fitted(RBFEncoder(54, DIM, seed=11, dtype="float32")),
        bits=1, packed=True,
    )
    peaks = []
    for n in (1380, 4 * 1380):
        X = _rows(5, n, 54)
        model.predict(X[:256])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.predict(X)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert max(peaks) < 8 * 2**20, peaks
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("encoder_cls", [
    FastfoodRBFEncoder,
    functools.partial(StructuredProjectionEncoder, activation="linear"),
], ids=["fastfood-rbf", "structured"])
def test_structured_encode_row_major_after_regeneration(encoder_cls, dtype):
    """Once dimensions are regenerated a whole-batch structured encode is
    C-ordered, like a windowed one, and scores bit for bit alike (a
    column-major encoding took another row-norm path, ~6e-8 apart)."""
    encoder = encoder_cls(54, 1024, seed=2, dtype=dtype)
    rng = np.random.default_rng(2)
    encoder.regenerate(np.sort(rng.choice(1024, size=300, replace=False)))
    X = rng.normal(size=(256, 54))
    whole = encoder.encode(X)
    windowed = _encode_windows(encoder, X, 64)
    assert whole.flags.c_contiguous
    assert whole.tobytes() == windowed.tobytes()
    memory = AssociativeMemory(N_CLASSES, 1024, dtype=dtype)
    memory.set_vectors(rng.normal(size=(N_CLASSES, 1024)))
    assert (
        memory.similarities(whole).tobytes()
        == memory.similarities(windowed).tobytes()
    )
