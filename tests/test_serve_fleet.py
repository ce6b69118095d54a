"""Tests for repro.serve.fleet.server.FleetServer — supervised workers,
admission control, fault tolerance, and all-or-nothing hot-swap.

Fleets here are deliberately tiny (1–2 workers, small dims) so each test
spawns, exercises one behaviour, and tears down in well under a second of
wall clock per worker.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.deploy.quantized import QuantizedHDCModel
from repro.models.registry import make_model
from repro.serve.fleet import (
    DeadlineExceeded,
    FleetClosed,
    FleetServer,
    Overloaded,
    RequestFailed,
    as_quantized_artifact,
    resolve_worker_count,
)
from repro.serve.fleet.server import BROKEN, RUNNING


@pytest.fixture(scope="module")
def fitted(small_problem):
    train_x, train_y, test_x, test_y = small_problem
    model = make_model("disthd", dim=128, iterations=2, seed=3)
    model.fit(train_x, train_y)
    return model, test_x


@pytest.fixture(scope="module")
def artifact(fitted):
    model, _ = fitted
    return QuantizedHDCModel(model, bits=1, packed=True)


@pytest.fixture(scope="module")
def artifact_v2(small_problem):
    train_x, train_y, _, _ = small_problem
    retrained = make_model("disthd", dim=128, iterations=3, seed=9)
    retrained.fit(train_x, train_y)
    return QuantizedHDCModel(retrained, bits=1, packed=True)


def _hold_worker(fleet, test_x, delay_s):
    """Slow worker 0 down and occupy it with a one-row request, so the
    requests submitted next queue up behind it and drain as one batch.
    Returns the occupying request's future."""
    assert fleet.inject_chaos(0, {"kind": "slow", "delay_s": delay_s})
    blocker = fleet.submit_predict(test_x[:1])
    time.sleep(delay_s / 2)  # the worker has taken it and sleeps
    return blocker


def _wait_for(predicate, timeout_s=10.0, poll_s=0.01):
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()


class TestLifecycle:
    def test_start_predict_parity_close(self, artifact, fitted):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=2) as fleet:
            assert fleet.worker_states() == [RUNNING, RUNNING]
            pids = fleet.worker_pids()
            assert len(set(pids)) == 2 and all(p for p in pids)
            np.testing.assert_array_equal(
                fleet.predict(test_x), artifact.predict(test_x)
            )
            np.testing.assert_allclose(
                fleet.decision_scores(test_x[:8]),
                artifact.decision_scores(test_x[:8]),
            )
        # Context exit closed the fleet: further submits are rejected.
        with pytest.raises(FleetClosed):
            fleet.predict(test_x[:1])

    def test_close_idempotent(self, artifact):
        fleet = FleetServer(artifact, n_workers=1)
        fleet.close()
        fleet.close()  # second close is a no-op
        assert all(s != RUNNING for s in fleet.worker_states())

    def test_stats_shape(self, artifact, fitted):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=1) as fleet:
            fleet.predict(test_x[:4])
            stats = fleet.stats()
            assert stats["n_requests"] >= 1
            info = stats["fleet"]
            assert info["n_workers"] == 1
            assert info["n_running"] == 1
            assert info["epoch"] == 1
            assert info["workers"][0]["state"] == RUNNING
            assert info["workers"][0]["restarts"] == 0

    def test_validates_request_shape(self, artifact, fitted):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=1) as fleet:
            assert fleet.predict(test_x[:2]).shape == (2,)
            with pytest.raises(ValueError, match="features"):
                fleet.predict(np.zeros((2, test_x.shape[1] + 1)))
            with pytest.raises(ValueError, match="non-empty"):
                fleet.predict(np.zeros((0, test_x.shape[1])))


class TestAdmission:
    def test_full_queues_shed_with_overloaded(self, artifact, fitted):
        _, test_x = fitted
        with FleetServer(
            artifact, n_workers=1, queue_depth=1, hang_timeout_s=60.0
        ) as fleet:
            # Wedge the only worker so nothing drains the queue, then
            # fill the single slot; the next admission must shed.
            assert fleet.inject_chaos(0, {"kind": "hang"})
            time.sleep(0.3)  # the hang directive is consumed off the queue
            fleet.submit_predict(test_x[:1])
            with pytest.raises(Overloaded, match="admission control"):
                for _ in range(4):
                    fleet.submit_predict(test_x[:1])
            assert fleet.metrics.n_shed >= 1
            fleet.close(timeout_s=0.5)

    def test_deadline_expired_in_queue(self, artifact, fitted):
        _, test_x = fitted
        with FleetServer(
            artifact, n_workers=1, queue_depth=4, hang_timeout_s=60.0
        ) as fleet:
            assert fleet.inject_chaos(0, {"kind": "slow", "delay_s": 0.4})
            time.sleep(0.2)
            slow = fleet.submit_predict(test_x[:1], timeout=5.0)
            doomed = fleet.submit_predict(test_x[:1], timeout=0.05)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5.0)
            assert slow.result(timeout=5.0) is not None
            assert fleet.metrics.problem_counts().get(
                "deadline-expired", 0
            ) >= 1


class TestBatching:
    """Workers score each drained queue as one micro-batch."""

    def test_mixed_batch_matches_artifact_row_for_row(
        self, artifact, fitted
    ):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=1) as fleet:
            blocker = _hold_worker(fleet, test_x, 0.2)
            requests = [
                ("predict", test_x[0:1]),
                ("scores", test_x[1:4]),
                ("predict", test_x[4:6]),
                ("scores", test_x[6:7]),
                ("predict", test_x[7:12]),
            ]
            futures = [
                (fleet.submit_predict if kind == "predict"
                 else fleet.submit_decision_scores)(rows)
                for kind, rows in requests
            ]
            blocker.result(timeout=10.0)
            for (kind, rows), future in zip(requests, futures):
                result = future.result(timeout=10.0)
                if kind == "predict":
                    np.testing.assert_array_equal(
                        result, artifact.predict(rows)
                    )
                else:
                    np.testing.assert_allclose(
                        result, artifact.decision_scores(rows)
                    )
            stats = fleet.stats()
            # The blocker alone, then all five requests (12 rows) as one
            # batch: one batch-size and one stage record per batch.
            assert stats["n_requests"] == 6
            assert stats["batch_sizes"] == {"1": 1, "12": 1}
            assert stats["mean_batch_size"] == pytest.approx(6.5)
            assert stats["stages"]["n_batches"] == 2

    def test_delayed_batch_releases_each_reply_after_its_share(
        self, artifact, fitted
    ):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=1) as fleet:
            blocker = _hold_worker(fleet, test_x, 0.2)
            futures = [
                fleet.submit_predict(test_x[i:i + 1]) for i in range(3)
            ]
            done_at = {}
            for i, future in enumerate(futures):
                future.add_done_callback(
                    lambda _, i=i: done_at.setdefault(i, time.perf_counter())
                )
            blocker.result(timeout=10.0)
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(
                    future.result(timeout=10.0),
                    artifact.predict(test_x[i:i + 1]),
                )
            # One batch of three, scored once, but its replies leave one
            # 0.2 s delay apart instead of together at the end.
            assert fleet.stats()["batch_sizes"] == {"1": 1, "3": 1}
            assert done_at[1] - done_at[0] >= 0.15
            assert done_at[2] - done_at[1] >= 0.15

    def test_requests_queued_before_reload_use_old_epoch(
        self, artifact, artifact_v2, fitted, monkeypatch
    ):
        _, test_x = fitted
        assert not np.allclose(
            artifact.decision_scores(test_x[:8]),
            artifact_v2.decision_scores(test_x[:8]),
        )
        with FleetServer(artifact, n_workers=1) as fleet:
            request_queue = fleet._workers[0].queue
            put = request_queue.put
            reload_queued = threading.Event()

            def put_and_flag(message, *args, **kwargs):
                put(message, *args, **kwargs)
                if message[0] == "reload":
                    reload_queued.set()

            monkeypatch.setattr(request_queue, "put", put_and_flag)
            blocker = _hold_worker(fleet, test_x, 0.2)
            before = [
                fleet.submit_decision_scores(test_x[i:i + 2]) for i in (0, 2)
            ]
            outcome = {}
            swap = threading.Thread(
                target=lambda: outcome.update(fleet.deploy(artifact_v2))
            )
            swap.start()
            assert reload_queued.wait(timeout=10.0)
            after = [
                fleet.submit_decision_scores(test_x[i:i + 2]) for i in (4, 6)
            ]
            swap.join(timeout=30.0)
            assert outcome.get("ok") is True
            blocker.result(timeout=10.0)
            for i, future in zip((0, 2), before):
                np.testing.assert_allclose(
                    future.result(timeout=10.0),
                    artifact.decision_scores(test_x[i:i + 2]),
                )
            for i, future in zip((4, 6), after):
                np.testing.assert_allclose(
                    future.result(timeout=10.0),
                    artifact_v2.decision_scores(test_x[i:i + 2]),
                )

    def test_sigkill_of_worker_holding_a_batch_retries_it(
        self, artifact, fitted
    ):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=2) as fleet:
            for index in (0, 1):
                assert fleet.inject_chaos(
                    index, {"kind": "slow", "delay_s": 0.2}
                )
            # Four requests per worker: each serves one or more first,
            # then sleeps on the batch of the rest when the kill lands.
            futures = [
                fleet.submit_predict(test_x[i:i + 1]) for i in range(8)
            ]
            time.sleep(0.3)
            assert fleet.kill_worker(0) is not None
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(
                    future.result(timeout=15.0),
                    artifact.predict(test_x[i:i + 1]),
                )
            assert fleet.metrics.n_retries >= 3
            assert fleet.metrics.n_errors == 0


class TestAdmissionValidation:
    def test_non_finite_rows_rejected_at_submit(self, artifact, fitted):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=1) as fleet:
            for bad in (np.nan, np.inf, -np.inf):
                rows = np.array(test_x[:2], dtype=np.float64)
                rows[1, 0] = bad
                with pytest.raises(ValueError, match="NaN or infinity"):
                    fleet.submit_predict(rows)
                with pytest.raises(ValueError, match="NaN or infinity"):
                    fleet.submit_decision_scores(rows)
            assert fleet.stats()["fleet"]["pending"] == 0
            np.testing.assert_array_equal(
                fleet.predict(test_x[:2]), artifact.predict(test_x[:2])
            )

    def test_failing_batch_keeps_each_error_with_its_request(
        self, artifact, fitted, monkeypatch
    ):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=1) as fleet:
            # Skip admission so a non-finite row reaches a worker batch
            # and makes its one-pass scoring raise.
            monkeypatch.setattr(
                fleet, "_validate",
                lambda X: np.atleast_2d(np.asarray(X, dtype=np.float64)),
            )
            poisoned = np.array(test_x[2:3], dtype=np.float64)
            poisoned[0, 0] = np.nan
            blocker = _hold_worker(fleet, test_x, 0.1)
            good = fleet.submit_predict(test_x[0:2])
            bad = fleet.submit_predict(poisoned)
            scores = fleet.submit_decision_scores(test_x[3:5])
            with pytest.raises(RequestFailed, match="NaN"):
                bad.result(timeout=10.0)
            np.testing.assert_array_equal(
                good.result(timeout=10.0), artifact.predict(test_x[0:2])
            )
            np.testing.assert_allclose(
                scores.result(timeout=10.0),
                artifact.decision_scores(test_x[3:5]),
            )
            blocker.result(timeout=10.0)
            assert fleet.metrics.n_errors == 1


class TestFaultTolerance:
    def test_sigkill_worker_is_restarted(self, artifact, fitted):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=2) as fleet:
            pid = fleet.kill_worker(0)
            assert pid is not None
            assert _wait_for(
                lambda: fleet.wait_all_running(timeout=0.1)
                and fleet.stats()["fleet"]["workers"][0]["restarts"] >= 1
            )
            # The restarted fleet still serves correctly.
            np.testing.assert_array_equal(
                fleet.predict(test_x[:8]), artifact.predict(test_x[:8])
            )
            counts = fleet.metrics.problem_counts()
            assert counts.get("worker-crashed", 0) >= 1

    def test_rapid_crashes_trip_circuit_breaker(self, artifact):
        with FleetServer(
            artifact, n_workers=2, max_restarts=2, restart_window_s=30.0,
            restart_backoff_s=0.02,
        ) as fleet:
            deaths = 0
            deadline = time.perf_counter() + 20.0
            while deaths < 2 and time.perf_counter() < deadline:
                if fleet.worker_states()[0] == RUNNING:
                    fleet.kill_worker(0)
                    assert _wait_for(
                        lambda: fleet.worker_states()[0] != RUNNING
                    )
                    deaths += 1
                else:
                    time.sleep(0.01)
            assert _wait_for(lambda: fleet.worker_states()[0] == BROKEN)
            counts = fleet.metrics.problem_counts()
            assert counts.get("circuit-open", 0) >= 1
            # The surviving worker keeps the fleet serving.
            assert fleet.running_indices() == [1]


class TestDeploy:
    def test_all_or_nothing_success(self, small_problem, artifact):
        train_x, train_y, test_x, _ = small_problem
        retrained = make_model("disthd", dim=128, iterations=3, seed=9)
        retrained.fit(train_x, train_y)
        v2 = QuantizedHDCModel(retrained, bits=1, packed=True)
        with FleetServer(artifact, n_workers=2) as fleet:
            outcome = fleet.deploy(v2)
            assert outcome == {"ok": True, "epoch": 2, "workers": 2}
            assert fleet.active_epoch == 2
            np.testing.assert_array_equal(
                fleet.predict(test_x[:8]), v2.predict(test_x[:8])
            )
            assert fleet.metrics.n_swaps == 1

    def test_partial_failure_rolls_back_to_last_good(
        self, small_problem, artifact
    ):
        train_x, train_y, test_x, _ = small_problem
        retrained = make_model("disthd", dim=128, iterations=3, seed=9)
        retrained.fit(train_x, train_y)
        v2 = QuantizedHDCModel(retrained, bits=1, packed=True)
        with FleetServer(
            artifact, n_workers=2, hang_timeout_s=60.0
        ) as fleet:
            # Worker 1 is wedged: it can never ack the reload, so the
            # epoch flip must not happen and the acked worker must be
            # rolled back to the last-good artifact.
            assert fleet.inject_chaos(1, {"kind": "hang"})
            time.sleep(0.3)
            outcome = fleet.deploy(v2, timeout_s=1.0)
            assert outcome["ok"] is False
            assert outcome["epoch"] == 1
            assert outcome["rejected_epoch"] == 2
            assert 1 in outcome["unacked"]
            assert fleet.active_epoch == 1
            assert fleet.metrics.n_swaps == 0
            assert fleet.metrics.problem_counts().get(
                "swap-rollback", 0
            ) == 1
            # The healthy worker still serves the last-good model.
            np.testing.assert_array_equal(
                fleet.predict(test_x[:8]), artifact.predict(test_x[:8])
            )
            fleet.close(timeout_s=0.5)

    def test_feature_mismatch_rejected(self, small_problem, artifact):
        train_x, train_y, _, _ = small_problem
        other = make_model("disthd", dim=64, iterations=1, seed=1)
        other.fit(train_x[:, :10], train_y)
        wrong = QuantizedHDCModel(other, bits=1, packed=True)
        with FleetServer(artifact, n_workers=1) as fleet:
            with pytest.raises(ValueError, match="hot-swap"):
                fleet.deploy(wrong)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
)
class TestMappings:
    def test_reloads_close_superseded_mappings(
        self, artifact, artifact_v2, fitted
    ):
        _, test_x = fitted
        with FleetServer(artifact, n_workers=1) as fleet:
            names = [fleet.shared_artifact.name]
            for i in range(4):
                outcome = fleet.deploy(artifact_v2 if i % 2 == 0 else artifact)
                assert outcome["ok"] is True
                names.append(fleet.shared_artifact.name)
            assert len(set(names)) == 5
            np.testing.assert_array_equal(
                fleet.predict(test_x[:4]), artifact.predict(test_x[:4])
            )
            (pid,) = fleet.worker_pids()
            with open(f"/proc/{pid}/maps") as maps:
                lines = maps.read().splitlines()
            mapped = {
                name for name in names if any(name in line for line in lines)
            }
            # The current epoch, plus at most the segment that was active
            # at fork time: the worker inherits the supervisor's mapping
            # of it.  Each superseded attach is closed.
            assert names[-1] in mapped
            assert len(mapped) <= 2, mapped


class TestSupervisorRaces:
    """Regressions for collector/watchdog races around worker death."""

    def test_retry_skips_victim_already_resolved_by_collector(
        self, artifact, fitted
    ):
        # A worker can answer a request and then die: the collector may
        # resolve the future before the watchdog's retry bookkeeping
        # runs.  _retry_or_fail must treat the settled request as done —
        # a second set_exception would raise InvalidStateError and kill
        # the watchdog thread for the rest of the fleet's life.
        from repro.serve.fleet.server import _Pending

        _, test_x = fitted
        with FleetServer(artifact, n_workers=1) as fleet:
            resolved = _Pending("predict", test_x[:1], time.time() + 5.0)
            resolved.rid = 10_000
            resolved.future.set_result("answered before death")
            fleet._retry_or_fail([resolved])  # retryable branch
            assert resolved.future.result() == "answered before death"

            scores = _Pending("scores", test_x[:1], time.time() + 5.0)
            scores.rid = 10_001
            scores.future.set_result("answered too")
            fleet._retry_or_fail([scores])  # non-retryable branch
            assert scores.future.result() == "answered too"

            assert fleet.metrics.problem_counts().get(
                "request-lost", 0
            ) == 0
            assert fleet._watchdog.is_alive()

    def test_watchdog_survives_tick_error(self, artifact, monkeypatch):
        # One bad tick (a single request's bookkeeping error) must never
        # take down the supervisor thread: no more restarts, hang
        # detection, or parked-request expiry would be fatal.
        with FleetServer(artifact, n_workers=1) as fleet:
            calls = {"n": 0}
            original = fleet._watch_tick

            def flaky():
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("boom")
                return original()

            monkeypatch.setattr(fleet, "_watch_tick", flaky)
            assert _wait_for(lambda: calls["n"] >= 2)
            assert fleet._watchdog.is_alive()
            assert fleet.metrics.problem_counts().get(
                "watchdog-error", 0
            ) >= 1

    def test_stale_sender_response_leaves_redispatched_pending(
        self, artifact, fitted
    ):
        # A dead worker's late answer (already in the pipe when it died)
        # must not settle a request that was re-dispatched to a
        # survivor: the survivor owns the answer, and accepting the
        # stale one would leak the survivor's ``assigned`` slot forever.
        from repro.serve.fleet.server import _Pending

        _, test_x = fitted
        with FleetServer(artifact, n_workers=2) as fleet:
            stale_sender, owner = fleet._workers
            pending = _Pending("predict", test_x[:1], time.time() + 5.0)
            pending.rid = 20_000
            with fleet._lock:
                pending.worker = owner
                owner.assigned += 1
                fleet._pending[pending.rid] = pending
                before = owner.assigned

            stale_meta = {"n_rows": 1, "encode_s": 1e-4, "score_s": 1e-4}
            fleet._on_response(
                stale_sender,
                ("res", [(pending.rid, "ok", "stale")], stale_meta),
            )
            assert not pending.future.done()
            with fleet._lock:
                assert pending.rid in fleet._pending
                assert owner.assigned == before
            # A batch with only stale answers is not recorded either.
            assert fleet.stats()["batch_sizes"] == {}
            assert fleet.stats()["stages"] is None

            fleet._on_response(
                owner, ("res", [(pending.rid, "ok", "fresh")], None)
            )
            assert pending.future.result() == "fresh"
            with fleet._lock:
                assert pending.rid not in fleet._pending
                assert owner.assigned == before - 1


class TestHelpers:
    def test_as_quantized_artifact_passthrough(self, artifact):
        assert as_quantized_artifact(artifact) is artifact

    def test_as_quantized_artifact_rejects_bare_model(self, fitted):
        model, _ = fitted
        with pytest.raises(TypeError, match="QuantizedHDCModel"):
            as_quantized_artifact(model)
        with pytest.raises(TypeError):
            as_quantized_artifact(object())

    def test_resolve_worker_count(self):
        assert resolve_worker_count(3) == 3
        assert resolve_worker_count(None) >= 1
        assert resolve_worker_count(-1) >= 1
        with pytest.raises(ValueError):
            resolve_worker_count(0)
