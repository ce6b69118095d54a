"""Tests for repro.serve.core — the admission check and the one
encode→score→argmax pass both front ends serve through."""

import numpy as np
import pytest

import repro.backend.base as window_rule
from repro.deploy.quantized import QuantizedHDCModel
from repro.models.registry import make_model
from repro.persistence import LoadedHDCModel, load_model, save_model
from repro.serve.core import PREDICT, SCORES, admit, score_requests
from repro.serve.fleet import FleetServer
from repro.serve.server import ModelServer

SIZE_PARAMETERS = ("n_rows", [1, 3, 4, 17])

DIM = 96

#: ``(bits, packed, rows per window)`` of every quantized artifact under
#: test (``None``: the default window rule).
QUANTIZED = [
    (bits, packed, chunk)
    for bits, packed in ((1, False), (2, False), (4, False), (8, False),
                         (1, True))
    for chunk in (None, 3)
]


@pytest.fixture(scope="module")
def fitted(small_problem):
    train_x, train_y, test_x, _ = small_problem
    model = make_model("disthd", dim=DIM, iterations=2, seed=3)
    model.fit(train_x, train_y)
    return model, test_x


def _window_rows(monkeypatch, rows):
    """Make artifacts of width ``DIM`` score ``rows``-row windows."""
    monkeypatch.setattr(window_rule, "_REFRESH_ELEMENTS", rows * DIM)
    monkeypatch.setattr(window_rule, "_EXACT_GEMM_ELEMENTS", 2)


@pytest.fixture(scope="module")
def loaded(fitted, tmp_path_factory):
    model, _ = fitted
    path = save_model(model, tmp_path_factory.mktemp("core") / "m.npz")
    restored = load_model(path)
    assert isinstance(restored, LoadedHDCModel)
    return restored


def _requests(rows, lead):
    """Split ``rows`` into requests of 1 and 2 rows whose kinds
    alternate, starting with ``lead``."""
    kinds = (lead, SCORES if lead == PREDICT else PREDICT)
    requests, start, i = [], 0, 0
    while start < rows.shape[0]:
        stop = min(start + 1 + i % 2, rows.shape[0])
        requests.append((kinds[i % 2], rows[start:stop]))
        start, i = stop, i + 1
    return requests


class _SpyEstimator:
    """A servable model that is not a ``StagedModel``: row-wise methods
    that record the rows each call sees."""

    def __init__(self):
        self.seen = []

    def predict(self, X):
        self.seen.append((PREDICT, X))
        return X.sum(axis=1)

    def decision_scores(self, X):
        self.seen.append((SCORES, X))
        return np.stack([X.min(axis=1), X.max(axis=1)], axis=1)


def _check_parity(model, rows, lead):
    requests = _requests(rows, lead)
    results, encode_s, score_s = score_requests(model, requests)
    labels = model.predict(rows)
    scores = model.decision_scores(rows)
    assert len(results) == len(requests)
    start = 0
    for (kind, block), result in zip(requests, results):
        stop = start + block.shape[0]
        expected = labels if kind == PREDICT else scores
        np.testing.assert_array_equal(result, expected[start:stop])
        start = stop
    assert encode_s is not None and encode_s > 0.0
    assert score_s is not None and score_s > 0.0


class TestScoreRequests:
    @pytest.mark.parametrize("lead", [PREDICT, SCORES])
    @pytest.mark.parametrize("bits,packed,chunk", QUANTIZED)
    @pytest.mark.parametrize(*SIZE_PARAMETERS)
    def test_quantized_matches_own_path(
        self, fitted, n_rows, bits, packed, chunk, lead, monkeypatch
    ):
        model, test_x = fitted
        if chunk is not None:
            _window_rows(monkeypatch, chunk)
        artifact = QuantizedHDCModel(model, bits=bits, packed=packed)
        _check_parity(artifact, test_x[:n_rows], lead)

    @pytest.mark.parametrize("lead", [PREDICT, SCORES])
    @pytest.mark.parametrize(*SIZE_PARAMETERS)
    def test_loaded_archive_matches_own_path(
        self, loaded, fitted, n_rows, lead
    ):
        _, test_x = fitted
        _check_parity(loaded, test_x[:n_rows], lead)

    def test_other_models_use_their_own_methods_untimed(self, fitted):
        model, test_x = fitted
        rows = test_x[:5]
        results, encode_s, score_s = score_requests(
            model, _requests(rows, PREDICT)
        )
        assert encode_s is None and score_s is None
        # Each method runs once, on its own kind's rows: 0, 3 and 1, 2, 4.
        np.testing.assert_array_equal(
            results[0], model.predict(rows[[0, 3]])[:1]
        )
        np.testing.assert_array_equal(
            results[1], model.decision_scores(rows[[1, 2, 4]])[:2]
        )

    @pytest.mark.parametrize("lead", [PREDICT, SCORES])
    def test_other_models_score_each_kind_on_its_own_rows(self, fitted, lead):
        _, test_x = fitted
        requests = _requests(test_x[:7], lead)
        spy = _SpyEstimator()
        results, _, _ = score_requests(spy, requests)
        assert sorted(kind for kind, _ in spy.seen) == [PREDICT, SCORES]
        for kind, X in spy.seen:
            np.testing.assert_array_equal(
                X, np.concatenate([b for k, b in requests if k == kind])
            )
        direct = _SpyEstimator()
        for (kind, block), result in zip(requests, results):
            expected = (
                direct.predict(block) if kind == PREDICT
                else direct.decision_scores(block)
            )
            np.testing.assert_array_equal(result, expected)

    def test_unknown_kind_rejected(self, loaded, fitted):
        _, test_x = fitted
        with pytest.raises(ValueError, match="unknown request kind"):
            score_requests(loaded, [("topk", test_x[:1])])

    def test_unadmitted_row_still_rejected_by_encoder(self, loaded, fitted):
        _, test_x = fitted
        rows = np.array(test_x[:2], dtype=np.float64)
        rows[1, 3] = np.nan
        with pytest.raises(ValueError, match="NaN or infinity"):
            score_requests(loaded, [(PREDICT, rows)])


class TestAdmit:
    def test_returns_float64_matrix(self):
        rows = admit([1, 2, 3], 3)
        assert rows.shape == (1, 3) and rows.dtype == np.float64

    def test_any_width_without_n_features(self):
        assert admit(np.ones((2, 5)), None).shape == (2, 5)

    @pytest.mark.parametrize(
        "X,match",
        [
            (np.array([[1.0, np.nan, 0.0]]), "NaN or infinity"),
            (np.array([[1.0, np.inf, 0.0]]), "NaN or infinity"),
            (np.array([[1.0, -np.inf, 0.0]]), "NaN or infinity"),
            (np.ones((1, 4)), "expects 3 features"),
            (np.empty((0, 3)), "non-empty"),
            (np.ones((2, 3, 1)), "2-dimensional"),
        ],
    )
    def test_rejects(self, X, match):
        with pytest.raises(ValueError, match=match):
            admit(X, 3)


class TestChunkedArtifactIsTimed:
    """An 8-row request to an artifact scoring 4-row windows is staged
    and timed by both front ends, window by window (fleet workers fork
    with the rule patched)."""

    @pytest.fixture(scope="class")
    def chunked(self, fitted):
        model, _ = fitted
        return QuantizedHDCModel(model, bits=1, packed=True)

    @pytest.fixture(autouse=True)
    def four_row_windows(self, monkeypatch):
        _window_rows(monkeypatch, 4)
        assert window_rule.refresh_windows(8, DIM) == [(0, 4), (4, 8)]

    def test_model_server_reports_stages(self, chunked, fitted):
        _, test_x = fitted
        with ModelServer(chunked) as server:
            np.testing.assert_array_equal(
                server.predict(test_x[:8], timeout=10.0),
                chunked.predict(test_x[:8]),
            )
            stages = server.stats()["stages"]
        assert stages is not None and stages["n_batches"] == 1
        assert stages["encode_s"] > 0.0 and stages["score_s"] > 0.0

    def test_fleet_server_reports_stages(self, chunked, fitted):
        _, test_x = fitted
        with FleetServer(chunked, n_workers=1) as fleet:
            np.testing.assert_array_equal(
                fleet.predict(test_x[:8], timeout=10.0),
                chunked.predict(test_x[:8]),
            )
            stages = fleet.stats()["stages"]
        assert stages is not None and stages["n_batches"] == 1
        assert stages["encode_s"] > 0.0 and stages["score_s"] > 0.0
