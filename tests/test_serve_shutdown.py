"""Tests for repro.serve.shutdown and serving teardown races.

Covers the graceful-shutdown registry + signal handlers, and the
shutdown/teardown races the serving stack must win: ModelServer closed
mid-hot-swap, MicroBatcher closed against late-racing submits, and
double-close idempotence across the stack.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.models.registry import make_model
from repro.serve import shutdown
from repro.serve.batcher import MicroBatcher
from repro.serve.server import ModelServer


@pytest.fixture(scope="module")
def fitted(small_problem):
    train_x, train_y, test_x, _ = small_problem
    model = make_model("disthd", dim=128, iterations=2, seed=3)
    model.fit(train_x, train_y)
    return model, test_x


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test starts and ends with an empty registry and no handlers."""
    for server in shutdown.registered():
        shutdown.unregister(server)
    yield
    shutdown.uninstall_signal_handlers()
    for server in shutdown.registered():
        shutdown.unregister(server)


class _Closeable:
    def __init__(self, log, name, fail=False):
        self.log = log
        self.name = name
        self.fail = fail

    def close(self):
        if self.fail:
            raise RuntimeError(f"{self.name} refuses to die")
        self.log.append(self.name)


class TestRegistry:
    def test_register_unregister_idempotent(self):
        server = _Closeable([], "a")
        shutdown.register(server)
        shutdown.register(server)  # duplicate is a no-op
        assert shutdown.registered() == [server]
        shutdown.unregister(server)
        shutdown.unregister(server)  # already gone: no error
        assert shutdown.registered() == []

    def test_close_all_newest_first_and_fault_tolerant(self):
        log = []
        first = _Closeable(log, "first")
        stubborn = _Closeable(log, "stubborn", fail=True)
        last = _Closeable(log, "last")
        for server in (first, stubborn, last):
            shutdown.register(server)
        closed = shutdown.close_all()
        # The failing close doesn't stop the sweep, and dependents
        # (registered later) come down before their dependencies.
        assert closed == 2
        assert log == ["last", "first"]
        assert shutdown.registered() == []

    def test_model_server_auto_registers(self, fitted):
        model, test_x = fitted
        server = ModelServer(model)
        assert server in shutdown.registered()
        server.close()
        assert server not in shutdown.registered()

    def test_close_all_closes_model_server(self, fitted):
        model, test_x = fitted
        server = ModelServer(model)
        assert shutdown.close_all() == 1
        with pytest.raises(RuntimeError, match="closed"):
            server.predict(test_x[:1])


class TestSignalHandlers:
    def test_handler_closes_registry_and_chains(self, fitted):
        model, test_x = fitted
        # Park a benign previous handler so the post-shutdown re-raise
        # lands somewhere harmless instead of killing the test process.
        chained = []
        previous = signal.signal(
            signal.SIGUSR1, lambda signum, frame: chained.append(signum)
        )
        try:
            server = ModelServer(model)
            seen = []
            assert shutdown.install_signal_handlers(
                signals=(signal.SIGUSR1,), on_shutdown=seen.append
            )
            assert shutdown.handlers_installed()
            os.kill(os.getpid(), signal.SIGUSR1)
            assert seen == [signal.SIGUSR1]
            assert chained == [signal.SIGUSR1]  # previous handler restored
            assert not shutdown.handlers_installed()
            with pytest.raises(RuntimeError, match="closed"):
                server.predict(test_x[:1])
        finally:
            signal.signal(signal.SIGUSR1, previous)

    def test_repeated_signal_mid_teardown_does_not_reenter(self):
        # Teardown runs on the main thread holding non-reentrant server
        # locks; a second SIGINT/SIGTERM arriving mid-close() used to
        # re-enter the handler on that same thread and deadlock.  The
        # handler now disarms (SIG_IGN) before closing, so a repeated
        # signal during teardown is dropped and close() runs exactly
        # once.
        chained = []
        previous = signal.signal(
            signal.SIGUSR1, lambda signum, frame: chained.append(signum)
        )
        try:
            closes = []

            class _Reraiser:
                def close(self):
                    closes.append("close")
                    # The repeated signal, delivered synchronously on
                    # this (main) thread while teardown is in progress.
                    signal.raise_signal(signal.SIGUSR1)

            shutdown.register(_Reraiser())
            assert shutdown.install_signal_handlers(
                signals=(signal.SIGUSR1,)
            )
            os.kill(os.getpid(), signal.SIGUSR1)
            assert closes == ["close"]
            # Only the handler's own post-teardown re-raise reached the
            # restored previous handler — the mid-close one was ignored.
            assert chained == [signal.SIGUSR1]
            assert not shutdown.handlers_installed()
        finally:
            signal.signal(signal.SIGUSR1, previous)

    def test_install_refused_off_main_thread(self):
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                shutdown.install_signal_handlers(signals=(signal.SIGUSR1,))
            )
        )
        thread.start()
        thread.join(timeout=5.0)
        assert results == [False]
        assert not shutdown.handlers_installed()


class _SlowWarmup:
    """A servable model whose warm-up call stalls mid-deploy."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s
        self.entered = threading.Event()

    def predict(self, X):
        return self._inner.predict(X)

    def decision_scores(self, X):
        self.entered.set()
        time.sleep(self._delay_s)
        return self._inner.decision_scores(X)


class TestTeardownRaces:
    def test_close_during_in_flight_hot_swap(self, fitted):
        model, test_x = fitted
        server = ModelServer(model)
        server.predict(test_x[:2])  # populate warm rows
        slow = _SlowWarmup(model, delay_s=0.3)
        outcome = {}

        def deploy():
            try:
                outcome["version"] = server.deploy(slow).version
            except Exception as exc:  # pragma: no cover - failure detail
                outcome["error"] = exc

        swapper = threading.Thread(target=deploy)
        swapper.start()
        assert slow.entered.wait(timeout=5.0)  # deploy is mid-warm-up
        server.close()  # must not deadlock against the swap
        swapper.join(timeout=5.0)
        assert not swapper.is_alive()
        # The swap completed (close stops intake, not version bookkeeping).
        assert outcome.get("version") == 2
        server.close()  # still idempotent after the race
        with pytest.raises(RuntimeError, match="closed"):
            server.predict(test_x[:1])

    def test_batcher_close_with_racing_submits(self):
        batcher = MicroBatcher(
            lambda requests: [rows * 2.0 for _, rows in requests],
            max_batch_size=8,
        )
        futures = []
        rejected = threading.Event()

        def spam():
            while not rejected.is_set():
                try:
                    futures.append(batcher.submit("predict", np.ones((1, 4))))
                except RuntimeError:
                    rejected.set()  # intake is closed: expected endgame

        threads = [threading.Thread(target=spam) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        batcher.close()
        rejected.set()
        for thread in threads:
            thread.join(timeout=5.0)
        # Loss-free shutdown: every accepted request resolves, including
        # any that raced the close flag into the queue.
        assert futures
        for future in futures:
            np.testing.assert_array_equal(
                future.result(timeout=5.0), np.full((1, 4), 2.0)
            )

    def test_double_close_idempotent_across_stack(self, fitted):
        model, _ = fitted
        batcher = MicroBatcher(lambda requests: [rows for _, rows in requests])
        batcher.close()
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("predict", np.ones((1, 4)))
        server = ModelServer(model)
        server.close()
        server.close()
