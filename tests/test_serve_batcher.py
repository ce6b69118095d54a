"""Tests for repro.serve.batcher.MicroBatcher."""

import queue
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import batcher as batcher_module
from repro.serve.batcher import MicroBatcher


def _answer(kind, X):
    """Row-aligned result that encodes the kind, for split verification."""
    if kind == "sum":
        return X.sum(axis=1)
    if kind == "double":
        return X * 2.0
    raise ValueError(f"boom: {kind}")


def _echo_handler(requests):
    return [_answer(kind, X) for kind, X in requests]


class _SpyQueue(queue.Queue):
    """Records each ``get``: whether it blocked, and the item it returned
    (``None`` when it came back empty).  ``started`` lists the
    ``(block, timeout)`` of every ``get`` as it begins, and ``entered``
    is set once one has."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.started = []
        self.entered = threading.Event()

    def get(self, block=True, timeout=None):
        self.started.append((block, timeout))
        self.entered.set()
        try:
            item = super().get(block, timeout)
        except queue.Empty:
            self.calls.append((block, None))
            raise
        self.calls.append((block, item))
        return item


def _spied_batcher(monkeypatch, handler):
    """A batcher whose worker reads a :class:`_SpyQueue` from its start."""
    spy = _SpyQueue()
    with monkeypatch.context() as patch:
        patch.setattr(batcher_module.queue, "Queue", lambda: spy)
        mb = MicroBatcher(handler)
    return mb, spy


class TestCoalescing:
    def test_single_request_round_trip(self):
        with MicroBatcher(_echo_handler) as mb:
            out = mb.submit("sum", np.ones(4)).result(timeout=5)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(4.0)

    def test_multi_row_request_round_trip(self):
        rows = np.arange(12, dtype=float).reshape(3, 4)
        with MicroBatcher(_echo_handler) as mb:
            out = mb.submit("double", rows).result(timeout=5)
        np.testing.assert_allclose(out, rows * 2.0)

    def test_concurrent_requests_get_their_own_rows(self):
        rows = [np.full(4, float(i)) for i in range(40)]
        results = [None] * len(rows)
        with MicroBatcher(_echo_handler, max_batch_size=8) as mb:
            def fire(i):
                results[i] = mb.submit("sum", rows[i]).result(timeout=10)

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(len(rows))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i, out in enumerate(results):
            assert out[0] == pytest.approx(4.0 * i), f"request {i} got {out}"

    def test_mixed_kinds_in_one_window_stay_separate(self):
        started, gate = threading.Event(), threading.Event()
        batches = []

        def handler(requests):
            batches.append([kind for kind, _ in requests])
            started.set()
            gate.wait(timeout=10)
            return _echo_handler(requests)

        with MicroBatcher(handler) as mb:
            head = mb.submit("sum", np.ones(3))
            assert started.wait(timeout=5)
            # Queued while the worker is busy: drained as one batch that
            # holds both kinds.
            futures = []
            for i in range(6):
                kind = "sum" if i % 2 == 0 else "double"
                futures.append((kind, i, mb.submit(kind, np.full(3, float(i)))))
            gate.set()
            assert head.result(timeout=10)[0] == pytest.approx(3.0)
            for kind, i, future in futures:
                out = future.result(timeout=10)
                if kind == "sum":
                    assert out[0] == pytest.approx(3.0 * i)
                else:
                    np.testing.assert_allclose(out[0], np.full(3, 2.0 * i))
        assert batches == [["sum"], ["sum", "double"] * 3]

    def test_batch_size_cap_respected(self):
        sizes = []
        gate = threading.Event()

        def slow_handler(requests):
            gate.wait(timeout=10)
            return _echo_handler(requests)

        mb = MicroBatcher(slow_handler, max_batch_size=4, on_batch=sizes.append)
        try:
            futures = [mb.submit("sum", np.ones(2)) for _ in range(12)]
            gate.set()
            for f in futures:
                f.result(timeout=10)
        finally:
            mb.close()
        assert sizes, "no batches recorded"
        # Single-rows-of-2 requests: a batch stops growing once >= 4 rows.
        assert max(sizes) <= 4 + 1  # one multi-row request may overshoot

    def test_lone_request_waits_only_for_itself(self, monkeypatch):
        """The worker blocks only to wait for a batch's first request;
        what it adds to the batch it takes without waiting."""
        seen = []

        def handler(requests):
            seen.append(list(spy.calls))
            return _echo_handler(requests)

        mb, spy = _spied_batcher(monkeypatch, handler)
        with mb:
            # Submit only once the idle worker waits on the spy, so the
            # request arrives fresh.
            assert spy.entered.wait(timeout=5)
            assert mb.submit("sum", np.ones(3)).result(timeout=5)[0] == 3.0
        (calls,) = seen
        taken = [i for i, (_, item) in enumerate(calls) if item is not None]
        assert len(taken) == 1
        assert calls[taken[0]][0], "the first request is waited for"
        assert not any(block for block, _ in calls[taken[0] + 1:])


class TestErrors:
    def test_handler_error_propagates_to_futures(self):
        with MicroBatcher(_echo_handler) as mb:
            future = mb.submit("unknown-kind", np.ones(3))
            with pytest.raises(ValueError, match="boom"):
                future.result(timeout=5)
            # the batcher survives and keeps serving
            assert mb.submit("sum", np.ones(3)).result(timeout=5)[0] == 3.0

    def test_row_misaligned_handler_is_an_error(self):
        bad_handlers = (
            lambda requests: [np.zeros(X.shape[0] + 1) for _, X in requests],
            lambda requests: [],  # one result short
        )
        for bad_handler in bad_handlers:
            with MicroBatcher(bad_handler) as mb:
                with pytest.raises(RuntimeError, match="result rows"):
                    mb.submit("sum", np.ones(3)).result(timeout=5)

    def test_width_mismatched_requests_fail_without_killing_worker(self):
        started, gate = threading.Event(), threading.Event()

        def handler(requests):
            started.set()
            gate.wait(timeout=10)
            stacked = np.concatenate([X for _, X in requests])
            return [stacked.sum(axis=1)[:X.shape[0]] for _, X in requests]

        with MicroBatcher(handler) as mb:
            first = mb.submit("sum", np.ones(3))
            assert started.wait(timeout=5)
            # Queued while the worker is busy: guaranteed to drain into
            # one (width-mismatched) batch.
            narrow = mb.submit("sum", np.ones(3))
            wide = mb.submit("sum", np.ones(5))
            gate.set()
            assert first.result(timeout=5)[0] == 3.0
            # The stacking failure lands on the batch's futures, not the
            # worker thread...
            with pytest.raises(ValueError):
                narrow.result(timeout=5)
            with pytest.raises(ValueError):
                wide.result(timeout=5)
            # ...and the worker survives to serve well-formed requests.
            assert mb.submit("sum", np.ones(4)).result(timeout=5)[0] == 4.0

    def test_empty_rows_rejected(self):
        with MicroBatcher(_echo_handler) as mb:
            with pytest.raises(ValueError, match="non-empty"):
                mb.submit("sum", np.empty((0, 4)))

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(_echo_handler, max_batch_size=0)


class TestLifecycle:
    def test_close_flushes_pending_requests(self):
        release = threading.Event()

        def slow_handler(requests):
            release.wait(timeout=10)
            return _echo_handler(requests)

        mb = MicroBatcher(slow_handler, max_batch_size=2)
        futures = [mb.submit("sum", np.ones(2)) for _ in range(10)]
        release.set()
        mb.close()
        # Zero dropped: every accepted request resolves.
        assert all(f.done() for f in futures)
        assert all(f.result()[0] == 2.0 for f in futures)

    def test_submit_after_close_raises(self):
        mb = MicroBatcher(_echo_handler)
        mb.close()
        assert mb.closed
        with pytest.raises(RuntimeError, match="closed"):
            mb.submit("sum", np.ones(3))

    def test_idle_worker_blocks_once_and_close_wakes_it(self, monkeypatch):
        """An idle worker sleeps in one untimed ``get`` instead of polling,
        and ``close`` wakes it rather than waiting out a poll."""
        mb, spy = _spied_batcher(monkeypatch, _echo_handler)
        assert spy.entered.wait(timeout=5)
        time.sleep(0.2)
        assert spy.started == [(True, None)]
        mb.close()
        assert not mb._worker.is_alive()
        mb.close()  # a second close is harmless
        assert not mb._worker.is_alive()

    def test_marker_mid_batch_flushes_the_batch_first(self):
        """Requests queued ahead of close's marker are all served, even
        when the marker lands inside a drain."""
        started, gate = threading.Event(), threading.Event()

        def handler(requests):
            started.set()
            gate.wait(timeout=10)
            return _echo_handler(requests)

        mb = MicroBatcher(handler, max_batch_size=64)
        head = mb.submit("sum", np.ones(3))
        assert started.wait(timeout=5)
        queued = [mb.submit("sum", np.full(3, float(i))) for i in range(4)]
        closer = threading.Thread(target=mb.close)
        closer.start()
        deadline = time.monotonic() + 5
        while mb._queue.qsize() <= len(queued):  # until close queues its marker
            assert time.monotonic() < deadline
            time.sleep(0.001)
        gate.set()
        closer.join(timeout=10)
        assert not closer.is_alive() and not mb._worker.is_alive()
        assert head.result(timeout=0)[0] == 3.0
        for i, future in enumerate(queued):
            assert future.result(timeout=0)[0] == pytest.approx(3.0 * i)

    def test_submit_racing_a_timed_out_close_resolves(self, monkeypatch):
        """A submit that read the open flag just before close() set it
        lands behind the marker; if close() gave up joining a busy
        worker, that worker serves the request before it exits."""
        started, gate = threading.Event(), threading.Event()

        def handler(requests):
            started.set()
            gate.wait(timeout=10)
            return _echo_handler(requests)

        mb = MicroBatcher(handler)
        head = mb.submit("sum", np.ones(3))
        assert started.wait(timeout=5)
        mb.close(timeout=0.01)
        assert mb._worker.is_alive()
        is_set, checks = mb._closed.is_set, []

        def flag_read_before_close():
            checks.append(None)
            return len(checks) > 1 and is_set()

        monkeypatch.setattr(mb._closed, "is_set", flag_read_before_close)
        late = mb.submit("sum", np.full(3, 2.0))
        gate.set()
        mb._worker.join(timeout=5)
        assert not mb._worker.is_alive()
        assert head.result(timeout=0)[0] == 3.0
        assert late.result(timeout=0)[0] == 6.0

    def test_close_lets_go_of_the_handler(self, monkeypatch):
        """Once close has seen the worker exit and flushed the queue, the
        batcher drops its handler and callbacks (an owner's bound methods
        would otherwise keep the owner alive); a submit that raced past
        that last flush fails as a submit after close does."""
        done = []
        mb = MicroBatcher(
            _echo_handler, on_group_done=lambda lat, ok: done.append(ok),
            on_batch=lambda rows: None,
        )
        assert mb.submit("sum", np.ones(3)).result(timeout=5)[0] == 3.0
        mb.close()
        assert mb.handler is not _echo_handler
        assert mb._on_group_done is None and mb._on_batch is None
        is_set, checks = mb._closed.is_set, []

        def flag_read_before_close():
            checks.append(None)
            return len(checks) > 1 and is_set()

        monkeypatch.setattr(mb._closed, "is_set", flag_read_before_close)
        late = mb.submit("sum", np.full(3, 2.0))
        with pytest.raises(RuntimeError, match="closed"):
            late.result(timeout=0)
        assert done == [True]


class TestRandomSchedules:
    """Submit, handler-gating and close orders drawn by hypothesis; each
    request's rows are tagged with its index so a mix-up shows."""

    @settings(max_examples=40, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.sampled_from(["sum", "double", "boom"]),
                st.integers(min_value=1, max_value=5),
                st.booleans(),
            ),
            min_size=1,
            max_size=16,
        ),
        max_batch_size=st.integers(min_value=1, max_value=8),
        close_at=st.integers(min_value=0, max_value=16),
        gate_closed_at_close=st.booleans(),
    )
    def test_every_request_resolves_once_with_its_own_result(
        self, requests, max_batch_size, close_at, gate_closed_at_close
    ):
        gate = threading.Event()
        gate.set()
        batches = []

        def handler(batch):
            batches.append([X[0, 0] for _, X in batch])
            gate.wait(timeout=10)
            return _echo_handler(batch)

        mb = MicroBatcher(handler, max_batch_size=max_batch_size)
        opener = threading.Timer(0.002, gate.set)
        accepted, resolutions = [], {}
        try:
            for i, (kind, n_rows, hold) in enumerate(requests):
                if i == close_at:
                    break
                # ``hold`` closes the gate so that requests queue behind
                # a busy handler; otherwise the gate opens.
                if hold:
                    gate.clear()
                else:
                    gate.set()
                rows = i + np.arange(n_rows * 3, dtype=float).reshape(n_rows, 3)
                future = mb.submit(kind, rows)
                resolutions[i] = 0

                def count(_, i=i):
                    resolutions[i] += 1

                future.add_done_callback(count)
                accepted.append((i, kind, rows, future))
            # Close with the handler still blocked, or with the gate open.
            if gate_closed_at_close:
                opener.start()
            else:
                gate.set()
            mb.close(timeout=10)
        finally:
            gate.set()
            mb.close()
            if opener.is_alive():
                opener.join(timeout=5)
        assert not opener.is_alive()
        for i, kind, rows, future in accepted:
            assert future.done()
        with pytest.raises(RuntimeError, match="closed"):
            mb.submit("sum", np.ones((1, 3)))

        # Submit order, and no batch grows past its cap before its last
        # request.
        assert [tag for batch in batches for tag in batch] == [
            float(i) for i, *_ in accepted
        ]
        for batch in batches:
            n_rows = [requests[int(tag)][1] for tag in batch]
            assert sum(n_rows[:-1]) < max_batch_size
        # Exactly one resolution each: its own result, or its batch's
        # error when a "boom" request shared the batch.
        failed = set()
        for batch in batches:
            if any(requests[int(tag)][0] == "boom" for tag in batch):
                failed.update(int(tag) for tag in batch)
        for i, kind, rows, future in accepted:
            assert resolutions[i] == 1
            if i in failed:
                with pytest.raises(ValueError, match="boom"):
                    future.result()
            else:
                np.testing.assert_array_equal(
                    future.result(), _answer(kind, rows)
                )
