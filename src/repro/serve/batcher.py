"""Micro-batching: serve whatever is queued as one batch.

Single-row inference wastes the library's batched kernels — encoding and
scoring one query at a time pays the full Python/dispatch overhead per row.
:class:`MicroBatcher` sits between callers and a batched handler: concurrent
:meth:`~MicroBatcher.submit` calls enqueue requests, and a worker thread
blocks for one request, drains every request already queued behind it (up
to ``max_batch_size`` rows), hands the drained requests to the handler in
one call, and resolves each caller's future with its own result.

The worker never waits for more requests to arrive.  Under load the queue
refills while a batch computes, so the next drain finds a batch ready; when
the queue is empty, waiting could only add latency to the request in hand.
``max_batch_size`` is the one knob: a batch stops growing once it holds
that many rows (one multi-row request may overshoot it).

Requests carry a ``kind`` tag (e.g. ``"predict"`` vs ``"scores"``) so one
batcher can front several batched operations; a batch may hold several
kinds, and the handler answers each request according to its own.

The idle worker sleeps in a blocking ``get`` and never polls.  Shutdown
is loss-free: :meth:`close` stops intake and queues a wake-up marker; the
worker serves everything queued, then exits, and a request that raced
the shutdown in after the worker's last look is flushed on the
submitting or closing thread — no request is ever dropped with a
pending future.  Once a close has seen the worker exit, the batcher lets
go of its handler and callbacks, so an owner whose bound methods they
are (a :class:`~repro.serve.server.ModelServer`) is freed by reference
counting; a submit that raced even that last flush fails with
``RuntimeError``, as a submit after :meth:`close` does.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.annotations import make_lock
from repro.obs.ids import wall_now
from repro.obs.trace import TraceContext, Tracer, span_record
from repro.utils.validation import check_positive_int

#: ``handler(requests)``: run one drained batch, given as a list of
#: ``(kind, rows)`` pairs in submit order; must return one result array
#: per request whose first axis aligns with that request's rows.  With
#: ``pass_context=True`` the handler is called as ``handler(requests,
#: ctx)`` where ``ctx`` is the *lead* trace context of the batch (the
#: first sampled request's), or ``None``.
BatchHandler = Callable[..., Sequence[np.ndarray]]

#: Queued by :meth:`MicroBatcher.close` to wake the blocked worker.
_WAKE = object()


def _closed_handler(*args: Any) -> Sequence[np.ndarray]:
    """The handler of a batcher whose close has seen its worker exit."""
    raise RuntimeError("MicroBatcher is closed")


class _Request:
    """One pending request: rows in, a future out."""

    __slots__ = ("kind", "rows", "future", "enqueued_at", "ctx")

    def __init__(
        self,
        kind: str,
        rows: np.ndarray,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        self.kind = kind
        self.rows = rows
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()
        self.ctx = ctx


class MicroBatcher:
    """Serve concurrent requests in batches through a batched handler.

    Parameters
    ----------
    handler:
        ``handler(requests)`` — called on the worker thread with the
        drained batch's ``(kind, rows)`` pairs (see :data:`BatchHandler`).
    max_batch_size:
        A batch stops growing once it holds at least this many rows.
    on_group_done:
        Optional callback ``(latencies_s, ok)`` per handler call: the
        end-to-end latencies (seconds, submit order) of every request in
        the batch, and whether the batch succeeded.  One call per batch —
        per-request callbacks would put a lock round-trip per request on
        the batcher thread.
    on_batch:
        Optional callback ``(n_rows)`` per handler call.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Sampled requests (those
        submitted with a sampled ``ctx``) get a per-request ``serve``
        span covering queue wait + batch execution, and each handler
        call on a batch containing a sampled request gets a ``batch``
        span parented to that batch's lead context.  ``None`` (the
        default) keeps the hot path free of tracing branches.
    pass_context:
        Call the handler as ``handler(requests, ctx)`` with the batch's
        lead trace context so downstream stages (encode/score) can
        parent their spans to it.

    Notes
    -----
    A request may carry several rows (a small client-side batch); its
    future resolves to the handler's result for exactly those rows.  A
    handler error fails every request of its batch.
    """

    def __init__(
        self,
        handler: BatchHandler,
        *,
        max_batch_size: int = 64,
        on_group_done: Optional[Callable[[List[float], bool], None]] = None,
        on_batch: Optional[Callable[[int], None]] = None,
        tracer: Optional[Tracer] = None,
        pass_context: bool = False,
    ) -> None:
        self.handler = handler
        self._tracer = tracer
        self._pass_context = bool(pass_context)
        self.max_batch_size = check_positive_int(max_batch_size, "max_batch_size")
        self._on_group_done = on_group_done
        self._on_batch = on_batch
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._closed = threading.Event()
        self._drain_lock = make_lock("MicroBatcher._drain_lock")
        self._worker = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ intake

    def submit(
        self,
        kind: str,
        rows: Any,
        ctx: Optional[TraceContext] = None,
    ) -> Future:
        """Enqueue ``rows`` (one sample ``(q,)`` or a block ``(m, q)``).

        ``ctx`` is an optional trace context propagated to the handler
        and reported on the request's ``serve`` span.  Returns a future
        resolving to the handler's result rows for this request.  Raises
        ``RuntimeError`` after :meth:`close`.
        """
        if self._closed.is_set():
            raise RuntimeError("MicroBatcher is closed")
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError(
                f"rows must be a sample (q,) or a non-empty block (m, q), "
                f"got shape {rows.shape}"
            )
        request = _Request(str(kind), rows, ctx)
        self._queue.put(request)
        if self._closed.is_set():
            # close() may have drained between our flag check and the
            # put; if the worker is already gone, nobody else will ever
            # see this request — flush it (and any peers) ourselves.
            self._drain_if_worker_dead()
        return request.future

    # ------------------------------------------------------------------ worker

    def _run(self) -> None:
        woken = False
        while not woken:
            first = self._queue.get()
            if first is _WAKE:
                break
            batch = [first]
            n_rows = first.rows.shape[0]
            # Take what is already queued, never wait for more.
            while n_rows < self.max_batch_size:
                try:
                    request = self._queue.get_nowait()
                except queue.Empty:
                    break
                if request is _WAKE:
                    woken = True
                    break
                batch.append(request)
                n_rows += request.rows.shape[0]
            self._flush(batch)
        # Serve what a submit racing close() queued behind the marker while
        # this thread was still alive to see it.
        self._flush_queued()

    def _lead_ctx(
        self, batch: Sequence[_Request]
    ) -> Optional[TraceContext]:
        """The first sampled context in ``batch`` — the batch's spans are
        parented to one representative request (span trees stay trees;
        the batch's row count is recorded as an attribute instead)."""
        if self._tracer is None or not self._tracer.enabled:
            return None
        for request in batch:
            if request.ctx is not None and request.ctx.sampled:
                return request.ctx
        return None

    def _flush(self, batch: Sequence[_Request]) -> None:
        lead_ctx = self._lead_ctx(batch)
        requests = [(request.kind, request.rows) for request in batch]
        n_rows = sum(rows.shape[0] for _, rows in requests)
        # Everything stays inside the guard: a handler error must fail
        # this batch's futures, not escape _flush and kill the worker
        # (stranding every pending and future request).
        try:
            if self._on_batch is not None:
                self._on_batch(n_rows)
            span = None
            if lead_ctx is not None:
                span = self._tracer.start(
                    "batch", role="server", ctx=lead_ctx,
                    attrs={"n_rows": n_rows, "n_requests": len(batch)},
                )
                handler_ctx: Optional[TraceContext] = span.context
            else:
                handler_ctx = None
            try:
                if self._pass_context:
                    results = self.handler(requests, handler_ctx)
                else:
                    results = self.handler(requests)
            finally:
                if span is not None:
                    span.end()
            if len(results) != len(requests) or any(
                len(result) != rows.shape[0]
                for result, (_, rows) in zip(results, requests)
            ):
                raise RuntimeError(
                    "handler result rows do not align with the batch's "
                    "requests"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            self._resolve(batch, None, exc)
        else:
            self._resolve(batch, results, None)

    def _resolve(
        self,
        batch: Sequence[_Request],
        results: Optional[Sequence[np.ndarray]],
        error: Optional[BaseException],
    ) -> None:
        now = time.perf_counter()
        tracing = self._tracer is not None and self._tracer.enabled
        wall = wall_now() if tracing else 0.0
        status = "ok" if error is None else "error"
        serve_records: List[Dict[str, object]] = []
        # Bookkeeping first, futures last: settling a future wakes its
        # waiting client thread, and a woken stampede contends with this
        # thread for the GIL — so every span/metric built after the first
        # set_result would run at the slowest possible moment.  Doing all
        # recording while the clients still sleep keeps the per-batch
        # tracing cost off the serving critical path.
        latencies: List[float] = []
        for request in batch:
            latency = now - request.enqueued_at
            latencies.append(latency)
            if tracing and request.ctx is not None and request.ctx.sampled:
                # Queue wait + batch execution for this one request; the
                # wall anchor is reconstructed from the monotonic latency
                # so the hot submit path never reads the wall clock.
                serve_records.append(span_record(
                    "serve", "server", request.ctx,
                    wall - latency, latency,
                    status=status,
                    attrs={"kind": request.kind,
                           "n_rows": int(request.rows.shape[0])},
                ))
        if self._on_group_done is not None:
            self._on_group_done(latencies, error is None)
        if serve_records:
            # One ingest per resolved batch: the tracer takes its ring
            # lock once for the whole batch instead of once per request.
            self._tracer.ingest(serve_records)
        if results is None:
            for request in batch:
                request.future.set_exception(error)
            return
        for request, result in zip(batch, results):
            request.future.set_result(result)

    # --------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop intake, flush everything still pending, join the worker."""
        self._closed.set()
        self._queue.put(_WAKE)
        self._worker.join(timeout=timeout)
        # A submit racing the shutdown flag can slip a request into the
        # queue behind the wake-up marker; flush those inline so every
        # accepted request resolves.  Only once the worker has actually
        # exited, though — a worker that outlived the join timeout still
        # owns the queue, and flushing alongside it would run the handler
        # on two threads at once.
        self._drain_if_worker_dead()

    def _drain_if_worker_dead(self) -> None:
        if self._worker.is_alive():
            return  # the live worker flushes the queue before exiting
        with self._drain_lock:
            self._flush_queued()
            # With the worker gone, only a submit racing this flush could
            # still call the handler.  Drop it and the callbacks: as bound
            # methods they would keep their owner (a ModelServer) and this
            # batcher alive in a cycle until a full garbage collection.
            self.handler = _closed_handler
            self._on_group_done = None
            self._on_batch = None

    def _flush_queued(self) -> None:
        """Flush every queued request as one batch; drop wake-up markers."""
        leftovers: List[_Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _WAKE:
                leftovers.append(item)
        if leftovers:
            self._flush(leftovers)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MicroBatcher(max_batch_size={self.max_batch_size})"
