"""The benchmark's load generator: a closed loop driven from one thread.

``window`` virtual callers each wait for their reply before sending the
next request, the way in-process threads blocking on ``predict`` use
these servers.  One thread submits; each future's done-callback only
stamps the time and hands the future back through a queue, so the
server's own threads do no client work.  Every request is timed from
just before submit to its callback.  A submit that raises and a future
that fails both count against the number attempted.
"""

from __future__ import annotations

import queue
import sys
import time
from concurrent.futures import Future
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: A round in which no reply arrives for this many seconds has stalled.
STALL_S = 15.0


def _stamp(done: "queue.SimpleQueue", index: int, future: Future) -> None:
    done.put((index, time.perf_counter(), 0.0, future))


def _stamp_unix(done: "queue.SimpleQueue", index: int, future: Future) -> None:
    done.put((index, time.perf_counter(), time.time(), future))


class PhaseResult:
    """Per-request timings of one phase, for successful requests only.

    ``indices`` are the request indices, and ``latency_s`` and
    ``submit_s`` the times from just before submit to the callback and to
    submit's return.  Traced phases also keep each request's trace id and
    the wall-clock times just before its submit and at its callback, to
    join with the program's spans.  A phase may be driven in several
    rounds; ``rounds`` holds each round's ``(first, count, elapsed_s)``:
    its successes are ``latency_s[first:first + count]`` and it lasted
    ``elapsed_s``, from its first submit to its last reply.
    """

    def __init__(self) -> None:
        self.indices: List[int] = []
        self.latency_s: List[float] = []
        self.submit_s: List[float] = []
        self.trace_ids: List[str] = []
        self.submit_unix: List[float] = []
        self.callback_unix: List[float] = []
        self.rounds: List[Tuple[int, int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.errors: List[str] = []

    @property
    def succeeded(self) -> int:
        return len(self.latency_s)

    @property
    def elapsed_s(self) -> float:
        return sum(elapsed for _, _, elapsed in self.rounds)

    def round_rps(self) -> List[float]:
        """Successful replies per second of each round."""
        return [count / elapsed for _, count, elapsed in self.rounds]

    def round_latencies(self) -> List[List[float]]:
        """The latencies of each round that had a success."""
        return [
            self.latency_s[first:first + count]
            for first, count, _ in self.rounds if count
        ]

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(error))


def drive(
    submit: Callable[..., Future],
    rows: np.ndarray,
    *,
    window: int,
    expected: np.ndarray,
    seconds: Optional[float] = None,
    n_requests: Optional[int] = None,
    tracer: Any = None,
    before_submit: Optional[Callable[[int], None]] = None,
    into: Optional[PhaseResult] = None,
) -> PhaseResult:
    """Run one closed-loop round and return its timings.

    Request ``i`` sends ``rows[i % len(rows)]``.  The round stops issuing
    after ``seconds`` or ``n_requests`` and then waits for every request
    still in flight.  ``expected[i % len(rows)]`` is the label the reply
    must hold; a reply that differs counts as failed and mismatched.
    With a ``tracer``, each request gets a sampled root context from
    ``tracer.sample_root()`` and is sent as ``submit(row, ctx)``.
    ``before_submit(i)`` runs on this thread before request ``i``.
    ``into`` adds this round to an earlier result, continuing its request
    indices.  A round in which no reply arrives for ``STALL_S`` raises
    TimeoutError.
    """
    done: "queue.SimpleQueue[Tuple[int, float, float, Future]]" = (
        queue.SimpleQueue()
    )
    stamp = _stamp if tracer is None else _stamp_unix
    n_rows = len(rows)
    result = PhaseResult() if into is None else into
    issued = result.attempted
    limit = sys.maxsize if n_requests is None else issued + int(n_requests)
    starts = {}
    first = result.succeeded
    begin = time.perf_counter()
    stop_at = begin + seconds if seconds is not None else float("inf")
    in_flight = 0
    while True:
        while (
            in_flight < window
            and issued < limit
            and time.perf_counter() < stop_at
        ):
            index = issued
            issued += 1
            if before_submit is not None:
                before_submit(index)
            row = rows[index % n_rows]
            result.attempted += 1
            ctx = None
            t0_unix = 0.0
            try:
                if tracer is not None:
                    ctx = tracer.sample_root()
                    t0_unix = time.time()
                t0 = time.perf_counter()
                future = submit(row) if ctx is None else submit(row, ctx)
            except Exception as error:  # noqa: BLE001 - counted as failed
                result.fail(error)
                continue
            t1 = time.perf_counter()
            starts[index] = (t0, t1, ctx, t0_unix)
            in_flight += 1
            future.add_done_callback(partial(stamp, done, index))
        if in_flight == 0:
            break
        try:
            index, t_done, unix_done, future = done.get(timeout=STALL_S)
        except queue.Empty:
            raise TimeoutError(
                f"no reply for {STALL_S:.0f} s with {in_flight} in flight"
            ) from None
        in_flight -= 1
        t0, t1, ctx, t0_unix = starts.pop(index)
        error = future.exception()
        if error is not None:
            result.fail(error)
            continue
        reply = np.asarray(future.result())
        if reply.shape != (1,) or reply[0] != expected[index % n_rows]:
            result.mismatched += 1
            result.fail(ValueError(f"request {index}: reply {reply!r}"))
            continue
        result.indices.append(index)
        result.latency_s.append(t_done - t0)
        result.submit_s.append(t1 - t0)
        if ctx is not None:
            result.trace_ids.append(ctx.trace_id)
            result.submit_unix.append(t0_unix)
            result.callback_unix.append(unix_done)
    result.rounds.append(
        (first, result.succeeded - first, time.perf_counter() - begin)
    )
    return result


def ceiling_rps(seconds: float, window: int) -> float:
    """Requests per second this generator reaches against a stub that
    returns an already-resolved future: the client's own ceiling."""
    label = np.zeros(1, dtype=np.int64)
    resolved: Future = Future()
    resolved.set_result(label)
    phase = drive(
        lambda row: resolved, np.zeros((1, 1)), window=window,
        seconds=seconds, expected=label,
    )
    return phase.round_rps()[0]
