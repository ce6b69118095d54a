"""Tests for repro.serve.loadgen.run_load."""

import numpy as np
import pytest

from repro.core.disthd import DistHDClassifier
from repro.serve.loadgen import run_load
from repro.serve.server import ModelServer


class TestCallableTarget:
    def test_round_robin_predictions_recorded(self):
        X = np.arange(12, dtype=float).reshape(4, 3)
        report = run_load(
            lambda row: float(row.sum()), X, n_requests=8, concurrency=2
        )
        assert report.n_requests == 8
        assert report.n_failed == 0
        assert report.throughput_rps > 0
        # request i carries row i % 4
        for i in range(8):
            assert report.predictions[i] == pytest.approx(X[i % 4].sum())

    def test_failures_counted_per_request(self):
        X = np.ones((4, 3))
        calls = []

        def flaky(row):
            calls.append(1)
            if len(calls) % 3 == 0:
                raise RuntimeError("transient")
            return 1

        report = run_load(flaky, X, n_requests=9, concurrency=1)
        assert report.n_failed == 3
        assert report.n_ok == 6
        failed = [p for p in report.predictions if isinstance(p, Exception)]
        assert len(failed) == 3

    def test_latency_summary(self):
        X = np.ones((2, 3))
        report = run_load(lambda row: 0, X, n_requests=16, concurrency=4)
        latency = report.latency_ms()
        for key in ("p50", "p95", "p99", "mean", "max"):
            assert key in latency
        record = report.as_record()
        assert record["n_ok"] == 16
        assert record["throughput_rps"] == pytest.approx(
            report.throughput_rps
        )

    def test_on_request_hook_runs_per_request(self):
        X = np.ones((2, 3))
        seen = []
        run_load(
            lambda row: 0, X, n_requests=6, concurrency=2,
            on_request=seen.append,
        )
        assert sorted(seen) == list(range(6))

    def test_hook_errors_surface_instead_of_killing_workers(self):
        X = np.ones((2, 3))

        def bad_hook(i):
            if i == 1:
                raise RuntimeError("hook boom")

        with pytest.raises(RuntimeError, match="on_request hook failed"):
            run_load(
                lambda row: 0, X, n_requests=6, concurrency=2,
                on_request=bad_hook,
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_load(lambda row: 0, np.empty((0, 3)), n_requests=4)
        with pytest.raises(ValueError, match="mode"):
            run_load(
                lambda row: 0, np.ones((2, 3)), n_requests=4, mode="delete"
            )


class TestServerTarget:
    def test_scores_mode_against_server(self, small_problem):
        train_x, train_y, test_x, _ = small_problem
        model = DistHDClassifier(dim=64, iterations=3, seed=0)
        model.fit(train_x, train_y)
        with ModelServer(model) as server:
            report = run_load(
                server, test_x[:8], n_requests=24, concurrency=4,
                mode="scores",
            )
            assert report.n_failed == 0
            reference = model.decision_scores(test_x[:8])
            for i, scores in enumerate(report.predictions):
                np.testing.assert_allclose(
                    np.asarray(scores)[0], reference[i % 8],
                    rtol=1e-6, atol=1e-7,
                )
