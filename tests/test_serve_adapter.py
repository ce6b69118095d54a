"""Tests for repro.serve.adapter: drift detection + online adaptation."""

import numpy as np
import pytest

from repro.core.disthd import DistHDClassifier
from repro.deploy.quantized import QuantizedHDCModel
from repro.engine.executor import ProcessExecutor
from repro.serve.adapter import DriftDetector, OnlineAdapter
from repro.serve.server import ModelServer


@pytest.fixture
def fitted(small_problem):
    train_x, train_y, _, _ = small_problem
    return DistHDClassifier(dim=96, iterations=5, seed=0).fit(train_x, train_y)


class TestDriftDetector:
    def test_insufficient_samples(self):
        detector = DriftDetector(window=16, min_samples=8)
        for _ in range(4):
            detector.observe(True, 0.5)
        report = detector.check()
        assert not report
        assert report.reason == "insufficient samples"

    def test_stable_stream_no_drift(self):
        detector = DriftDetector(window=16, min_samples=8)
        for _ in range(64):
            detector.observe(True, 0.5)
        assert not detector.check()

    def test_accuracy_drop_flags_drift(self):
        detector = DriftDetector(window=16, min_samples=16, acc_drop=0.2)
        for _ in range(16):  # reference: all correct
            detector.observe(True, 0.5)
        for _ in range(16):  # current window: all wrong
            detector.observe(False, 0.5)
        report = detector.check()
        assert report
        assert report.reason == "accuracy drop"
        assert report.reference["accuracy"] == pytest.approx(1.0)
        assert report.current["accuracy"] == pytest.approx(0.0)

    def test_margin_collapse_flags_drift(self):
        detector = DriftDetector(
            window=16, min_samples=16, acc_drop=1.0, margin_shrink=0.5
        )
        for _ in range(16):
            detector.observe(True, 1.0)
        for _ in range(16):  # labels still right, confidence gone
            detector.observe(True, 0.01)
        report = detector.check()
        assert report
        assert report.reason == "margin collapse"

    def test_rebaseline_resets_reference(self):
        detector = DriftDetector(window=8, min_samples=8, acc_drop=0.2)
        for _ in range(8):
            detector.observe(True, 0.5)
        for _ in range(8):
            detector.observe(False, 0.5)
        assert detector.check()
        detector.rebaseline()
        assert detector.check().reason == "insufficient samples"
        for _ in range(8):  # new reference formed from the shifted stream
            detector.observe(False, 0.5)
        assert not detector.check()

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="min_samples"):
            DriftDetector(window=8, min_samples=16)


class TestOnlineAdapterRaw:
    def test_requires_partial_fit(self, fitted):
        with ModelServer(fitted) as server:
            with pytest.raises(TypeError, match="partial_fit"):
                OnlineAdapter(server, object())

    def test_rejects_process_executor(self, fitted):
        with ModelServer(fitted) as server:
            with pytest.raises(ValueError, match="in-process"):
                OnlineAdapter(server, fitted, executor=ProcessExecutor(2))

    def test_feedback_shape_mismatch(self, fitted, small_problem):
        _, _, test_x, test_y = small_problem
        with ModelServer(fitted) as server:
            adapter = OnlineAdapter(server, fitted)
            with pytest.raises(ValueError, match="sample count"):
                adapter.feedback(test_x[:3], test_y[:2])

    def test_serving_the_trainee_gets_snapshotted(self, fitted, small_problem):
        _, _, test_x, _ = small_problem
        with ModelServer(fitted) as server:
            assert server.model is fitted
            OnlineAdapter(server, fitted)
            # The adapter must never leave the live trainee in rotation.
            assert server.model is not fitted
            np.testing.assert_array_equal(
                server.predict(test_x[:8]), fitted.predict(test_x[:8])
            )

    def test_failed_cycle_records_error_and_keeps_feedback(
        self, fitted, small_problem
    ):
        import copy

        train_x, train_y, _, _ = small_problem
        served = copy.deepcopy(fitted)
        with ModelServer(served) as server:
            adapter = OnlineAdapter(server, fitted)
            bogus = np.full(16, 9999)  # outside the fitted class set
            adapter.feedback(train_x[:16], bogus)
            adapter.adapt_now(wait=True)
            assert adapter.n_adaptations == 0
            assert adapter.last_error is not None
            stats = adapter.stats()
            assert stats["last_error"] is not None
            assert stats["n_failed_cycles"] == 1
            # The drained feedback was re-buffered, not lost.
            assert stats["buffered_feedback"] == 16
            # The failure surfaced as a structured problem event on the
            # server's metrics, not just an adapter-local attribute.
            problems = server.metrics.problem_counts()
            assert problems.get("adaptation-failure", 0) == 1
            events = server.metrics.problems()
            assert any(
                e["kind"] == "adaptation-failure" and e["detail"]
                for e in events
            )
            # The server is untouched and still serving.
            assert server.stats()["n_swaps"] == 0
            server.predict(train_x[:2])

    def test_successful_cycle_leaves_failure_counters_alone(
        self, fitted, small_problem
    ):
        import copy

        train_x, train_y, _, _ = small_problem
        served = copy.deepcopy(fitted)
        with ModelServer(served) as server:
            adapter = OnlineAdapter(server, fitted)
            adapter.feedback(train_x[:48], train_y[:48])
            adapter.adapt_now(wait=True)
            assert adapter.stats()["n_failed_cycles"] == 0
            assert server.metrics.problem_counts() == {}

    def test_single_adaptation_slot(self, fitted):
        with ModelServer(fitted) as server:
            adapter = OnlineAdapter(server, fitted)
            # The slot is test-and-set: a second claimant must lose.
            assert adapter._try_begin() is True
            assert adapter._try_begin() is False
            adapter._adapting.clear()
            assert adapter._try_begin() is True
            adapter._adapting.clear()

    def test_adapt_now_without_feedback(self, fitted):
        with ModelServer(fitted) as server:
            adapter = OnlineAdapter(server, fitted)
            with pytest.raises(RuntimeError, match="no buffered feedback"):
                adapter.adapt_now()

    def test_forced_adaptation_promotes_snapshot(self, fitted, small_problem):
        import copy

        train_x, train_y, test_x, _ = small_problem
        served = copy.deepcopy(fitted)
        with ModelServer(served) as server:
            adapter = OnlineAdapter(server, fitted)
            adapter.feedback(train_x[:48], train_y[:48])
            adapter.adapt_now(wait=True)
            assert adapter.n_adaptations == 1
            assert server.stats()["n_swaps"] == 1
            # The promoted version is a snapshot, not the live learner.
            assert server.model is not fitted
            np.testing.assert_array_equal(
                server.predict(test_x[:10]), server.model.predict(test_x[:10])
            )
            assert adapter.stats()["buffered_feedback"] == 0

    def test_drift_triggers_adaptation(self, fitted, small_problem):
        import copy

        train_x, train_y, test_x, test_y = small_problem
        served = copy.deepcopy(fitted)
        detector = DriftDetector(window=24, min_samples=24, acc_drop=0.3)
        with ModelServer(served) as server:
            adapter = OnlineAdapter(
                server, fitted, detector=detector, min_adapt_samples=16
            )
            # Reference window: genuine labels (high accuracy).
            adapter.feedback(train_x[:24], train_y[:24])
            assert adapter.n_adaptations == 0
            # Drifted stream: permuted labels crater windowed accuracy.
            shifted = (train_y[24:72] + 1) % (fitted.classes_.size)
            report = None
            for start in range(24, 72, 8):
                result = adapter.feedback(
                    train_x[start:start + 8], shifted[start - 24:start - 16]
                )
                report = report or result
            adapter.join(timeout=30.0)
            assert report is not None, "drift never flagged"
            assert adapter.n_adaptations >= 1
            assert server.stats()["n_swaps"] >= 1


class TestOnlineAdapterQuantized:
    def test_refresh_promotion_reuses_standby(self, fitted, small_problem):
        train_x, train_y, test_x, _ = small_problem
        artifact = QuantizedHDCModel(fitted, bits=8)
        with ModelServer(artifact) as server:
            adapter = OnlineAdapter(server, fitted)
            assert adapter.bits == 8  # auto-detected from the artifact
            adapter.feedback(train_x[:48], train_y[:48])
            adapter.adapt_now(wait=True)
            promoted = server.model
            assert isinstance(promoted, QuantizedHDCModel)
            assert promoted is not artifact
            assert promoted.refresh_count == 1
            assert promoted.classifier is fitted
            # Second cycle: the retired artifact rotates back in.
            adapter.feedback(train_x[48:96], train_y[48:96])
            adapter.adapt_now(wait=True)
            assert server.model is artifact
            assert artifact.refresh_count == 1
            assert adapter.n_adaptations == 2
            assert server.stats()["n_swaps"] == 2
            # Micro-batched path agrees with the active artifact exactly.
            np.testing.assert_array_equal(
                server.predict(test_x[:16]), server.model.predict(test_x[:16])
            )
