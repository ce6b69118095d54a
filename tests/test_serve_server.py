"""Tests for repro.serve.server.ModelServer (incl. the hot-swap protocol)."""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.api import serve_model
from repro.core.disthd import DistHDClassifier
from repro.deploy.quantized import QuantizedHDCModel
from repro.persistence import save_model
from repro.serve.server import ModelServer


@pytest.fixture(scope="module")
def fitted(small_problem):
    train_x, train_y, _, _ = small_problem
    return DistHDClassifier(dim=96, iterations=5, seed=0).fit(train_x, train_y)


@pytest.fixture(scope="module")
def fitted_v2(small_problem):
    train_x, train_y, _, _ = small_problem
    return DistHDClassifier(dim=96, iterations=5, seed=1).fit(train_x, train_y)


@pytest.fixture
def server(fitted):
    with ModelServer(fitted, max_batch_size=16) as srv:
        yield srv


class TestInference:
    def test_predict_matches_direct(self, server, fitted, small_problem):
        _, _, test_x, _ = small_problem
        np.testing.assert_array_equal(
            server.predict(test_x[:20]), fitted.predict(test_x[:20])
        )

    def test_single_row_predict(self, server, fitted, small_problem):
        _, _, test_x, _ = small_problem
        out = server.predict(test_x[0])
        assert out.shape == (1,)
        assert out[0] == fitted.predict(test_x[:1])[0]

    def test_decision_scores_match_direct(self, server, fitted, small_problem):
        _, _, test_x, _ = small_problem
        np.testing.assert_allclose(
            server.decision_scores(test_x[:10]),
            fitted.decision_scores(test_x[:10]),
            rtol=1e-6, atol=1e-7,
        )

    def test_concurrent_predict_parity(self, server, fitted, small_problem):
        _, _, test_x, _ = small_problem
        reference = fitted.predict(test_x)
        results = {}

        def fire(i):
            results[i] = server.predict(test_x[i])[0]

        threads = [
            threading.Thread(target=fire, args=(i,))
            for i in range(min(40, test_x.shape[0]))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, label in results.items():
            assert label == reference[i]

    def test_feature_mismatch_fails_fast(self, server):
        with pytest.raises(ValueError, match="features"):
            server.submit_predict(np.ones((2, 3)))

    def test_non_finite_rejected(self, server, small_problem):
        _, _, test_x, _ = small_problem
        bad = test_x[:2].copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            server.submit_predict(bad)

    def test_unservable_model_rejected(self):
        with pytest.raises(TypeError, match="not servable"):
            ModelServer(object())


class TestHotSwap:
    def test_deploy_switches_predictions(
        self, fitted, fitted_v2, small_problem
    ):
        _, _, test_x, _ = small_problem
        with ModelServer(fitted) as server:
            server.predict(test_x[:4])  # seed the warm-up row
            version = server.deploy(fitted_v2)
            assert version.version == 2
            assert server.active_version is version
            np.testing.assert_array_equal(
                server.predict(test_x[:20]), fitted_v2.predict(test_x[:20])
            )
            stats = server.stats()
            assert stats["n_swaps"] == 1
            assert stats["active_version"] == 2
            assert [v["version"] for v in stats["versions"]] == [1, 2]
            assert stats["versions"][0]["retired_unix"] is not None

    def test_deploy_from_archive_path(self, fitted, small_problem, tmp_path):
        _, _, test_x, _ = small_problem
        path = save_model(fitted, tmp_path / "v2.npz")
        with ModelServer(fitted) as server:
            version = server.deploy(str(path))
            assert version.source == str(path)
            # The archive loads as an inference-only view of the same state.
            np.testing.assert_array_equal(
                server.predict(test_x[:20]), fitted.predict(test_x[:20])
            )

    def test_deploy_feature_mismatch_rejected(self, fitted, small_problem):
        train_x, train_y, _, _ = small_problem
        other = DistHDClassifier(dim=32, iterations=2, seed=0).fit(
            train_x[:, :5], train_y
        )
        with ModelServer(fitted) as server:
            with pytest.raises(ValueError, match="hot-swap"):
                server.deploy(other)
            assert server.active_version.version == 1
            # With warm rows stashed, the guarded error (not a shape
            # error from the warm-up call) must still surface.
            server.predict(train_x[:2])
            with pytest.raises(ValueError, match="hot-swap"):
                server.deploy(other, warm=True)

    def test_swap_under_load_drops_nothing(
        self, fitted, fitted_v2, small_problem
    ):
        _, _, test_x, _ = small_problem
        n_requests = 120
        errors = []
        with ModelServer(fitted, max_batch_size=8) as server:
            swapped = threading.Event()

            def fire(i):
                try:
                    server.predict(test_x[i % test_x.shape[0]])
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                if i == n_requests // 2 and not swapped.is_set():
                    swapped.set()
                    server.deploy(fitted_v2)

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(n_requests)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            assert server.metrics.n_errors == 0
            assert server.stats()["n_swaps"] == 1
            # Post-swap, the batched path serves v2 exactly.
            np.testing.assert_array_equal(
                server.predict(test_x[:20]), fitted_v2.predict(test_x[:20])
            )

    def test_retired_version_drains(self, fitted, fitted_v2):
        with ModelServer(fitted) as server:
            old = server.active_version
            server.deploy(fitted_v2)
            assert server.wait_drained(old, timeout=5.0)
            assert old.in_flight == 0
            # default: the retired model reference is released
            assert old.model is None

    def test_concurrent_deploys_retire_every_loser(
        self, fitted, small_problem
    ):
        import copy

        train_x, train_y, _, _ = small_problem
        with ModelServer(fitted) as server:
            contenders = [copy.deepcopy(fitted) for _ in range(6)]
            threads = [
                threading.Thread(target=server.deploy, args=(m,))
                for m in contenders
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
            records = stats["versions"]
            assert len(records) == 7  # initial + 6 deploys
            active = stats["active_version"]
            # Exactly the active version is unretired; every loser was
            # retired (and, by default, released) exactly once.
            for record in records:
                if record["version"] == active:
                    assert record["retired_unix"] is None
                else:
                    assert record["retired_unix"] is not None
                    assert record["model"] is None
            assert stats["n_swaps"] == 6

    def test_release_refuses_while_in_flight(self, fitted):
        from repro.serve.server import ModelVersion

        version = ModelVersion(1, fitted, None)
        assert version._try_enter()
        # An in-flight batch blocks the release; the reference survives.
        assert version.release_model(timeout=0.05) is False
        assert version.model is fitted
        version._exit()
        assert version.release_model(timeout=1.0) is True
        assert version.model is None
        # A released version can no longer be entered — the handler must
        # re-read the active pointer instead of scoring against None.
        assert version._try_enter() is False

    def test_retain_retired_keeps_model(self, fitted, fitted_v2):
        with ModelServer(fitted, retain_retired=True) as server:
            old = server.active_version
            server.deploy(fitted_v2)
            assert old.model is fitted


class TestQuantizedArtifact:
    def test_serves_quantized_deploy_artifact(self, fitted, small_problem):
        _, _, test_x, _ = small_problem
        artifact = QuantizedHDCModel(fitted, bits=8)
        with ModelServer(artifact) as server:
            np.testing.assert_array_equal(
                server.predict(test_x[:20]), artifact.predict(test_x[:20])
            )


class TestLifecycle:
    def test_predict_after_close_raises(self, fitted):
        server = ModelServer(fitted)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.predict(np.zeros((1, fitted.n_features_)))

    def test_closed_server_freed_without_the_cycle_collector(
        self, fitted, small_problem
    ):
        """A closed server and the artifacts it held go as soon as the
        last reference does: its batcher no longer holds the server's
        bound methods once the worker has exited."""
        _, _, test_x, _ = small_problem
        gc.collect()
        gc.disable()
        try:
            server = ModelServer(QuantizedHDCModel(fitted, bits=1, packed=True))
            server.predict(test_x[:4])
            server.deploy(QuantizedHDCModel(fitted, bits=8))
            server.predict(test_x[:4])
            server_ref = weakref.ref(server)
            artifact_ref = weakref.ref(server.model)
            server.close()
            del server
            assert server_ref() is None
            assert artifact_ref() is None
        finally:
            gc.enable()

    def test_stats_fields(self, server, small_problem):
        _, _, test_x, _ = small_problem
        server.predict(test_x[:4])
        stats = server.stats()
        for key in (
            "uptime_s", "n_requests", "n_errors", "n_swaps",
            "throughput_rps", "latency_ms", "batch_sizes",
            "mean_batch_size", "active_version", "versions",
        ):
            assert key in stats
        assert stats["n_requests"] >= 1


class TestServeModelFacade:
    def test_serve_model_with_object(self, fitted, small_problem):
        _, _, test_x, _ = small_problem
        with serve_model(fitted) as server:
            np.testing.assert_array_equal(
                server.predict(test_x[:8]), fitted.predict(test_x[:8])
            )

    def test_serve_model_with_path(self, fitted, small_problem, tmp_path):
        _, _, test_x, _ = small_problem
        path = save_model(fitted, tmp_path / "m.npz")
        with serve_model(path=path) as server:
            np.testing.assert_array_equal(
                server.predict(test_x[:8]), fitted.predict(test_x[:8])
            )

    def test_serve_model_needs_exactly_one_source(self, fitted):
        with pytest.raises(TypeError, match="exactly one"):
            serve_model()
        with pytest.raises(TypeError, match="exactly one"):
            serve_model(fitted, path="x.npz")
