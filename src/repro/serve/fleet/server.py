"""The fault-tolerant serving fleet: supervisor + dispatcher + watchdog.

:class:`FleetServer` runs N worker *processes* (one OS process each, the
engine's :class:`~repro.engine.executor.ProcessExecutor` idiom applied to
the request path) against one
:class:`~repro.serve.fleet.shm.SharedArtifact` — the deploy model
published once into shared memory and mapped zero-copy by every worker.
The front end is a dispatcher with **per-worker bounded queues** and
**admission control**: a request is placed on the least-loaded running
worker's queue, and when every queue is full it is *shed* with an
explicit :class:`~repro.serve.fleet.errors.Overloaded` instead of
queueing unboundedly.  Requests are validated once, at admission, so a
malformed or non-finite row is rejected with ``ValueError`` before it can
share a worker batch.  Each request carries a **deadline**; a worker
answers an expired request without touching the model.  Workers drain
their queue into micro-batches and reply once per batch (see
:mod:`repro.serve.fleet.worker`); the collector settles a whole reply
under one lock acquisition.

Robustness model (the supervision tree, see ``docs/serving.md``):

- a **watchdog** thread detects crashed workers (process liveness) and
  hung workers (heartbeat age — each worker stamps a lock-free shared
  timestamp every loop tick, so SIGKILL and wedged-in-C both surface);
  hung workers are SIGKILLed so the restart path is the single recovery
  story;
- dead workers are restarted with **exponential backoff**, and a
  **crash-loop circuit breaker** stops restarting a worker that died
  ``max_restarts`` times inside ``restart_window_s`` — the fleet degrades
  to the surviving workers instead of hot-looping forks;
- in-flight requests assigned to a dead worker are **retried** on a
  surviving worker (idempotent ``predict`` only, bounded by the request
  deadline) — the acceptance property the chaos harness drives: SIGKILL
  under load loses zero non-shed requests;
- a worker that detects artifact corruption (CRC mismatch) exits with a
  distinct status; the supervisor **repairs the segment in place** from
  its pristine publish-time copy and restarts the worker;
- :meth:`FleetServer.deploy` is an **all-or-nothing epoch flip**: the new
  artifact is published as epoch N+1, every running worker reloads and
  acks, and only when all acks arrive does the fleet flip its active
  epoch (stragglers that die mid-swap don't block — they restart onto
  whatever epoch is active).  On any failure the acked workers are rolled
  back to the last-good epoch and the new segment is discarded.

Every noteworthy event lands in the structured problem-event log on
:class:`~repro.serve.metrics.ServerMetrics`, so ``stats()`` is the one
operator surface for shed counts, retries, crashes, breaker state and
swap rollbacks.

Observability (``obs=`` — an :class:`repro.obs.Observability` bundle):
sampled requests carry their :class:`~repro.obs.trace.TraceContext` over
the worker queues, the dispatcher wraps each attempt in a ``dispatch``
span and ingests the worker's ``encode``/``score`` spans from the
response metadata, retries emit a ``retry`` span on the same trace, and
the flight recorder is dumped on worker death, breaker trips, and
close().  Workers additionally ship their per-stage timing split back in
the response ``meta`` so ``stats()["stages"]`` reports the same
encode/score breakdown the single-process server does.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import signal
import threading
import time
from concurrent.futures import Future
from multiprocessing.connection import Connection, wait as connection_wait
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import guarded_by, make_lock
from repro.deploy.quantized import QuantizedHDCModel
from repro.obs.ids import wall_now
from repro.obs.trace import TraceContext, span_record
from repro.serve.fleet.errors import (
    DeadlineExceeded,
    FleetClosed,
    Overloaded,
    RequestFailed,
    WorkerCrashed,
)
from repro.serve.fleet.shm import EXIT_CORRUPT, SharedArtifact
from repro.serve.fleet.worker import fleet_worker_main, resolve_worker_count
from repro.serve.metrics import ServerMetrics
from repro.utils.validation import check_matrix, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs import Observability

#: Worker lifecycle states (``stats()["fleet"]["workers"][i]["state"]``).
STARTING = "starting"
RUNNING = "running"
BACKOFF = "backoff"
BROKEN = "broken"
STOPPED = "stopped"


def as_quantized_artifact(model: Any) -> QuantizedHDCModel:
    """Resolve ``model`` to the :class:`QuantizedHDCModel` a fleet serves.

    Accepts the artifact itself, a fitted
    :class:`~repro.deploy.quantized.QuantizedTrainer` (its ``deployed_``
    image), or a :mod:`repro.persistence` archive path that loads to
    either.
    """
    if isinstance(model, QuantizedHDCModel):
        return model
    deployed = getattr(model, "deployed_", None)
    if isinstance(deployed, QuantizedHDCModel):
        return deployed
    if isinstance(model, (str, Path)):
        from repro.persistence import load_model

        return as_quantized_artifact(load_model(model))
    raise TypeError(
        f"FleetServer needs a QuantizedHDCModel (or a QuantizedTrainer / "
        f"archive path holding one); got {type(model).__name__}"
    )


class _Pending:
    """One in-flight request: dispatch state the retry path needs."""

    __slots__ = (
        "rid", "kind", "rows", "deadline", "enqueued", "future", "worker",
        "attempts", "ctx", "span",
    )

    def __init__(
        self,
        kind: str,
        rows: np.ndarray,
        deadline: float,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        self.rid = -1
        self.kind = kind
        self.rows = rows
        self.deadline = deadline
        self.enqueued = time.time()
        self.future: Future = Future()
        self.worker: Optional[_WorkerHandle] = None
        self.attempts = 0
        self.ctx = ctx
        self.span: Optional[Any] = None  # live "dispatch" span, if sampled


class _WorkerHandle:
    """Supervisor-side record of one worker slot (mutated under the fleet
    lock).  The slot outlives individual processes: a restart bumps
    ``generation`` and replaces the process/queue/pipe wholesale, so a
    SIGKILL-corrupted channel can never be reused."""

    __slots__ = (
        "index", "generation", "process", "queue", "conn", "state", "epoch",
        "assigned", "restart_log", "restart_at", "started_at", "n_restarts",
        "last_exitcode", "ready_at",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.generation = 0
        self.process: Optional[Any] = None
        self.queue: Optional[Any] = None
        self.conn: Optional[Connection] = None
        self.state = BACKOFF
        self.epoch = 0
        self.assigned = 0
        self.restart_log: List[float] = []
        self.restart_at = 0.0
        self.started_at = 0.0
        self.n_restarts = -1  # the initial spawn is not a restart
        self.last_exitcode: Optional[int] = None
        self.ready_at: Optional[float] = None

    def as_record(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "state": self.state,
            "generation": self.generation,
            "pid": self.process.pid if self.process is not None else None,
            "epoch": self.epoch,
            "assigned": self.assigned,
            "restarts": max(self.n_restarts, 0),
            "breaker_open": self.state == BROKEN,
            "last_exitcode": self.last_exitcode,
        }


@guarded_by(
    "_lock",
    "_pending",
    "_next_rid",
    "_workers",
    "_swap_state",
    "_closed",
    aliases=("_state_cond",),
)
class FleetServer:
    """N supervised worker processes serving one shared-memory artifact.

    Parameters
    ----------
    model:
        A :class:`~repro.deploy.quantized.QuantizedHDCModel` (packed or
        not), a fitted ``QuantizedTrainer``, or an archive path holding
        one.
    n_workers:
        Worker processes (``-1``/``None`` → every visible core, the
        engine's ``resolve_n_jobs`` semantics).
    queue_depth:
        Bounded per-worker request queue length — the admission-control
        knob.  Total fleet capacity is ``n_workers * queue_depth``
        queued + in-flight requests; beyond it submits shed with
        :class:`Overloaded`.
    default_timeout_s:
        Request deadline when the caller does not pass one.
    heartbeat_interval_s / hang_timeout_s:
        Worker heartbeat cadence and the heartbeat age past which a live
        process counts as hung (and is SIGKILLed + restarted).
    restart_backoff_s / restart_backoff_max_s:
        Exponential restart backoff: death *k* within the window waits
        ``backoff * 2**(k-1)`` seconds, capped.
    max_restarts / restart_window_s:
        Crash-loop circuit breaker: ``max_restarts`` deaths inside
        ``restart_window_s`` mark the slot broken (no further restarts).
    retry_on_worker_loss:
        Retry a dead worker's in-flight ``predict`` requests on a
        survivor (idempotent; ``scores`` requests fail with
        :class:`WorkerCrashed` — callers own non-idempotent semantics).
    service_floor_s:
        Minimum per-request service time workers enforce (sleeping in
        heartbeat-preserving slices).  ``0`` serves at compute speed;
        benchmarks use a small floor to emulate downstream-bound request
        service when measuring queueing/scaling behaviour.
    start_method:
        ``multiprocessing`` start method (default ``fork`` where
        available — restart latency is a recovery-time budget item).
    obs:
        Optional :class:`repro.obs.Observability` bundle.  Enables trace
        propagation over the worker pipes (``ctx=`` on the submit
        methods), publishes fleet counters and per-worker gauges into
        the bundle's registry, forwards its ``flight_dir`` to the worker
        processes, and dumps the flight recorder on worker death,
        breaker trips, and :meth:`close`.
    """

    def __init__(
        self,
        model: Any,
        *,
        n_workers: Optional[int] = 2,
        queue_depth: int = 16,
        default_timeout_s: float = 5.0,
        heartbeat_interval_s: float = 0.05,
        hang_timeout_s: float = 2.0,
        start_timeout_s: float = 30.0,
        restart_backoff_s: float = 0.1,
        restart_backoff_max_s: float = 2.0,
        max_restarts: int = 3,
        restart_window_s: float = 5.0,
        max_retries: int = 2,
        retry_on_worker_loss: bool = True,
        service_floor_s: float = 0.0,
        crc_check_every: int = 64,
        start_method: Optional[str] = None,
        metrics_window: int = 8192,
        wait_ready: bool = True,
        obs: Optional["Observability"] = None,
    ) -> None:
        artifact = as_quantized_artifact(model)
        self.n_workers = resolve_worker_count(
            n_workers if n_workers is not None else 1
        )
        self.queue_depth = check_positive_int(queue_depth, "queue_depth")
        self.default_timeout_s = float(default_timeout_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.hang_timeout_s = float(hang_timeout_s)
        self.start_timeout_s = float(start_timeout_s)
        self.restart_backoff_s = float(restart_backoff_s)
        self.restart_backoff_max_s = float(restart_backoff_max_s)
        self.max_restarts = check_positive_int(max_restarts, "max_restarts")
        self.restart_window_s = float(restart_window_s)
        self.max_retries = int(max_retries)
        self.retry_on_worker_loss = bool(retry_on_worker_loss)
        self.service_floor_s = float(service_floor_s)
        self.crc_check_every = int(crc_check_every)
        self.obs = obs
        self.metrics = ServerMetrics(window=metrics_window, obs=obs)

        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        self._ctx = mp.get_context(start_method)
        self._heartbeat = self._ctx.Array(
            "d", self.n_workers, lock=False
        )
        self._lock = make_lock("FleetServer._lock")
        self._state_cond = threading.Condition(self._lock)
        self._pending: Dict[int, _Pending] = {}
        self._next_rid = 0
        self._workers: List[_WorkerHandle] = [
            _WorkerHandle(i) for i in range(self.n_workers)
        ]
        self._swap_state: Optional[Dict[str, Any]] = None
        self._closed = False
        self._closed_event = threading.Event()
        self._n_features = int(artifact.n_features_)
        self._epoch = 1
        self._artifact = SharedArtifact.publish(artifact, epoch=self._epoch)
        self._worker_config: Dict[str, Any] = {
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "crc_check_every": self.crc_check_every,
            "service_floor_s": self.service_floor_s,
            "flight_dir": (
                str(obs.flight_dir)
                if obs is not None and obs.flight_dir is not None
                else None
            ),
        }
        if obs is not None:
            self._register_fleet_gauges(obs)

        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-fleet-collector",
            daemon=True,
        )
        self._watchdog = threading.Thread(
            target=self._watch_loop, name="repro-fleet-watchdog", daemon=True,
        )
        try:
            for index in range(self.n_workers):
                self._start_worker(index)
            self._collector.start()
            self._watchdog.start()
            if wait_ready and not self.wait_all_running(
                timeout=self.start_timeout_s
            ):
                raise RuntimeError(
                    f"fleet failed to start: "
                    f"{self.worker_states()} after {self.start_timeout_s}s"
                )
            from repro.serve import shutdown as shutdown_registry

            shutdown_registry.register(self)
        except BaseException:
            self.close()
            raise

    def _register_fleet_gauges(self, obs: "Observability") -> None:
        """Pull-style fleet gauges: refreshed by a registry collector at
        scrape time, so per-worker queue depth and topology are always
        current without a background publisher thread."""
        reg = obs.registry
        g_running = reg.gauge(
            "repro_fleet_workers_running", "Worker slots in RUNNING state."
        )
        g_pending = reg.gauge(
            "repro_fleet_pending",
            "In-flight requests (dispatched + parked).",
        )
        g_epoch = reg.gauge(
            "repro_fleet_epoch", "Active shared-artifact epoch."
        )
        g_assigned = reg.gauge(
            "repro_fleet_worker_assigned",
            "Requests assigned per worker slot (queued + in flight).",
            labelnames=("worker",),
        )
        g_restarts = reg.gauge(
            "repro_fleet_worker_restarts",
            "Lifetime restarts per worker slot.",
            labelnames=("worker",),
        )

        def collect_fleet() -> None:
            with self._lock:
                records = [
                    (h.index, h.state, h.assigned, max(h.n_restarts, 0))
                    for h in self._workers
                ]
                n_pending = len(self._pending)
                epoch = self._epoch
            g_running.set(
                sum(1 for _, state, _, _ in records if state == RUNNING)
            )
            g_pending.set(n_pending)
            g_epoch.set(epoch)
            for index, _state, assigned, restarts in records:
                g_assigned.labels(worker=str(index)).set(assigned)
                g_restarts.labels(worker=str(index)).set(restarts)

        reg.add_collector(collect_fleet)

    # ----------------------------------------------------------- worker spawn

    def _start_worker(self, index: int) -> None:
        """(Re)spawn the worker in slot ``index`` (slot must be BACKOFF)."""
        with self._lock:
            handle = self._workers[index]
            if handle.state not in (BACKOFF,):
                return
            handle.generation += 1
            handle.n_restarts += 1
            handle.state = STARTING
            handle.started_at = time.time()
            handle.process = None
            handle.queue = None
            handle.conn = None
            generation = handle.generation
            shm_name = self._artifact.name
        request_queue = self._ctx.Queue(maxsize=self.queue_depth)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        self._heartbeat[index] = time.time()
        process = self._ctx.Process(
            target=fleet_worker_main,
            args=(
                index, generation, shm_name, request_queue, child_conn,
                self._heartbeat, self._worker_config,
            ),
            name=f"repro-fleet-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        with self._lock:
            handle = self._workers[index]
            # STARTING at the matching generation is the only state this
            # spawn may adopt: a generation bump means a racing restart,
            # and any other state (STOPPED in particular) means close()
            # ran between the first locked section and process.start() —
            # adopting the process there would orphan it past shutdown.
            stale = (
                handle.generation != generation
                or handle.state != STARTING
            )
            if not stale:
                handle.process = process
                handle.queue = request_queue
                handle.conn = parent_conn
        if stale:  # pragma: no cover - raced a restart or close()
            process.kill()
            process.join(timeout=2.0)
            try:
                parent_conn.close()
            except OSError:
                pass
            request_queue.cancel_join_thread()
            request_queue.close()

    # -------------------------------------------------------------- admission

    def _validate(self, X: Any) -> np.ndarray:
        """The one validation a request gets: shape, width and finite
        values, at admission, so a bad row never reaches a worker batch
        shared with well-formed requests."""
        rows = check_matrix(X, "X")
        if rows.shape[1] != self._n_features:
            raise ValueError(
                f"served artifact expects {self._n_features} features, "
                f"got {rows.shape[1]}"
            )
        return rows

    def _dispatch_to(
        self, pending: _Pending, candidates: Sequence[_WorkerHandle]
    ) -> bool:
        """Queue ``pending`` on the least-loaded candidate (caller holds
        the fleet lock).  Returns False when every queue refused."""
        trace: Optional[TraceContext] = None
        if (
            pending.ctx is not None
            and pending.ctx.sampled
            and self.obs is not None
        ):
            # One "dispatch" span per attempt; the wire context points at
            # it so the worker's spans nest under this exact dispatch.
            span = self.obs.tracer.start(
                "dispatch", role="supervisor", ctx=pending.ctx,
                attrs={
                    "rid": pending.rid, "kind": pending.kind,
                    "attempt": pending.attempts,
                },
            )
            pending.span = span
            trace = span.context
        for handle in sorted(candidates, key=lambda h: h.assigned):
            if handle.queue is None:
                continue
            try:
                handle.queue.put_nowait(
                    ("req", pending.rid, pending.kind, pending.rows,
                     pending.deadline, pending.enqueued, trace)
                )
            except queue_mod.Full:
                continue
            except (ValueError, OSError):  # pragma: no cover - closed queue
                continue
            pending.worker = handle
            handle.assigned += 1
            return True
        if pending.span is not None:
            pending.span.end("no-worker")
            pending.span = None
        return False

    def _submit(
        self,
        kind: str,
        X: Any,
        timeout: Optional[float],
        ctx: Optional[TraceContext] = None,
    ) -> Future:
        rows = self._validate(X)
        timeout_s = (
            self.default_timeout_s if timeout is None else float(timeout)
        )
        pending = _Pending(kind, rows, time.time() + timeout_s, ctx)
        with self._lock:
            if self._closed:
                raise FleetClosed("FleetServer is closed")
            pending.rid = self._next_rid
            self._next_rid += 1
            candidates = [h for h in self._workers if h.state == RUNNING]
            dispatched = self._dispatch_to(pending, candidates)
            if dispatched:
                self._pending[pending.rid] = pending
            n_candidates = len(candidates)
        if not dispatched:
            self.metrics.record_shed()
            raise Overloaded(
                f"admission control: {n_candidates} running worker(s), "
                f"every queue at depth {self.queue_depth}"
            )
        return pending.future

    def submit_predict(
        self,
        X: Any,
        timeout: Optional[float] = None,
        ctx: Optional[TraceContext] = None,
    ) -> Future:
        """Dispatch a ``predict`` request; resolves to the label rows.

        ``ctx`` is an optional trace context: sampled requests get a
        ``dispatch`` span and the worker ships its stage spans back on
        the same trace."""
        return self._submit("predict", X, timeout, ctx)

    def submit_decision_scores(
        self,
        X: Any,
        timeout: Optional[float] = None,
        ctx: Optional[TraceContext] = None,
    ) -> Future:
        """Dispatch a ``scores`` request; resolves to (n, k) scores."""
        return self._submit("scores", X, timeout, ctx)

    def predict(self, X: Any, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous fleet prediction (submit + wait)."""
        wait_s = self.default_timeout_s if timeout is None else float(timeout)
        result = self.submit_predict(X, timeout).result(timeout=wait_s + 2.0)
        return np.asarray(result)

    def decision_scores(
        self, X: Any, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Synchronous fleet scores (submit + wait)."""
        wait_s = self.default_timeout_s if timeout is None else float(timeout)
        result = self.submit_decision_scores(X, timeout).result(
            timeout=wait_s + 2.0
        )
        return np.asarray(result)

    # -------------------------------------------------------------- collector

    def _collect_loop(self) -> None:
        while not self._closed_event.is_set():
            with self._lock:
                conns: Dict[Connection, _WorkerHandle] = {
                    h.conn: h
                    for h in self._workers
                    if h.conn is not None and h.state in (STARTING, RUNNING)
                }
            if not conns:
                self._closed_event.wait(0.02)
                continue
            try:
                ready = connection_wait(list(conns), timeout=0.1)
            except OSError:  # pragma: no cover - conn torn down mid-wait
                continue
            for conn in ready:
                handle = conns[conn]
                try:
                    message = conn.recv()
                except Exception:  # noqa: BLE001 - EOF/garbage from a kill
                    with self._lock:
                        if handle.conn is conn:
                            handle.conn = None
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    continue
                self._on_message(handle, message)

    def _on_message(
        self, handle: _WorkerHandle, message: Tuple[Any, ...]
    ) -> None:
        tag = message[0]
        if tag == "res":
            self._on_response(handle, message)
        elif tag == "ready":
            _, index, generation, epoch = message
            redispatched: List[_Pending] = []
            with self._lock:
                if handle.generation == generation:
                    handle.state = RUNNING
                    handle.epoch = int(epoch)
                    handle.ready_at = time.time()
                    # A recovered worker first drains the parked backlog:
                    # retryable requests that survived a multi-worker
                    # outage waiting for anyone to come back.  Expired
                    # ones are answered "deadline" worker-side.
                    parked = [
                        p for p in self._pending.values()
                        if p.worker is None
                    ]
                    for pending in parked:
                        if self._dispatch_to(pending, (handle,)):
                            pending.attempts += 1
                            redispatched.append(pending)
                self._state_cond.notify_all()
            for pending in redispatched:
                self.metrics.record_retry()
                self._record_retry_span(pending)
        elif tag == "reloaded":
            _, _index, generation, epoch = message
            with self._lock:
                if handle.generation == generation:
                    handle.epoch = int(epoch)
                state = self._swap_state
                if state is not None and int(epoch) == state["epoch"]:
                    state["waiting"].discard((handle.index, generation))
                self._state_cond.notify_all()
        elif tag == "reload-failed":
            _, index, _generation, epoch, detail = message
            self.metrics.record_problem(
                "swap-reload-failed", f"worker {index}: {detail}"
            )
            with self._lock:
                state = self._swap_state
                if state is not None and int(epoch) == state["epoch"]:
                    state["failed"].append((index, detail))
                self._state_cond.notify_all()
        elif tag == "corrupt":
            _, index, _generation, epoch = message
            self.metrics.record_problem(
                "artifact-corruption",
                f"worker {index} failed CRC on epoch {epoch}",
            )
            with self._lock:
                artifact = self._artifact
            # Repair in place before the restart path re-maps the segment
            # (the worker exits with EXIT_CORRUPT right after reporting).
            artifact.restore_pristine()

    def _on_response(
        self, handle: _WorkerHandle, message: Tuple[Any, ...]
    ) -> None:
        """Settle one worker batch reply: its requests leave the pending
        table under one lock acquisition, and its latencies, stage split
        and batch size are recorded once."""
        _, replies, meta = message
        settled: List[Tuple[_Pending, str, Any]] = []
        spans: List[Tuple[Any, str]] = []
        with self._lock:
            for rid, status, payload in replies:
                pending = self._pending.get(rid)
                if pending is None or pending.worker is not handle:
                    # Late/duplicate answer from a worker we already
                    # failed, or from one whose request was re-dispatched
                    # elsewhere.  Leave a re-dispatched pending in place:
                    # the worker it now belongs to owns the answer
                    # (accepting the stale one here would leak the new
                    # owner's ``assigned`` slot).
                    continue
                del self._pending[rid]
                handle.assigned = max(handle.assigned - 1, 0)
                settled.append((pending, status, payload))
                if pending.span is not None:
                    spans.append((pending.span, str(status)))
                    pending.span = None
        if not settled:
            # Every answer was stale: the batch belongs to a worker whose
            # requests were failed or re-dispatched, so its batch size,
            # stage times and spans are not this fleet's to record.
            return
        for span, status in spans:
            span.end(status)
        if isinstance(meta, dict):
            self.metrics.record_batch(int(meta["n_rows"]))
            if "encode_s" in meta:
                self.metrics.record_stage_times(
                    float(meta["encode_s"]), float(meta.get("score_s", 0.0))
                )
            if self.obs is not None:
                self.obs.tracer.ingest(meta.get("spans"))
        # A caller may have cancelled its future meanwhile.
        settled = [item for item in settled if not item[0].future.done()]
        now = time.time()
        # Count before resolving, so a caller woken by its result sees
        # itself in ``stats()``.
        self.metrics.record_requests([
            now - pending.enqueued
            for pending, status, _ in settled if status == "ok"
        ])
        for pending, status, payload in settled:
            if status == "ok":
                pending.future.set_result(payload)
            elif status == "deadline":
                pending.future.set_exception(
                    DeadlineExceeded(
                        f"request {pending.rid} expired before a worker "
                        f"answered it"
                    )
                )
                self.metrics.record_error()
                self.metrics.record_problem(
                    "deadline-expired", f"request {pending.rid}"
                )
            else:
                pending.future.set_exception(RequestFailed(str(payload)))
                self.metrics.record_error()

    def _end_dispatch_span(self, pending: _Pending, status: str) -> None:
        """Close ``pending``'s live dispatch span (caller holds the fleet
        lock; span locks rank after it, see ``LOCK_ORDER``)."""
        span = pending.span
        pending.span = None
        if span is not None:
            span.end(status)

    def _record_retry_span(self, pending: _Pending) -> None:
        """Mark a re-dispatch on the request's trace — the ``retry`` span
        the chaos drill's span-tree acceptance predicate looks for."""
        if (
            self.obs is None
            or pending.ctx is None
            or not pending.ctx.sampled
        ):
            return
        self.obs.tracer.ingest([span_record(
            "retry", "supervisor", pending.ctx, wall_now(), 0.0,
            attrs={"rid": pending.rid, "attempt": pending.attempts},
        )])

    # --------------------------------------------------------------- watchdog

    def _watch_loop(self) -> None:
        while not self._closed_event.is_set():
            try:
                self._watch_tick()
            except Exception as exc:  # noqa: BLE001 - supervisor must live
                # One request's (or one worker's) bookkeeping error must
                # never take down the watchdog: losing this thread loses
                # restarts, hang detection and parked-request expiry for
                # the rest of the fleet's life.
                self.metrics.record_problem(
                    "watchdog-error", f"{type(exc).__name__}: {exc}"
                )
            self._closed_event.wait(self.heartbeat_interval_s)

    def _watch_tick(self) -> None:
        now = time.time()
        dead: List[Tuple[_WorkerHandle, str]] = []
        to_start: List[int] = []
        with self._lock:
            for handle in self._workers:
                if handle.state in (STARTING, RUNNING):
                    process = handle.process
                    if process is not None and not process.is_alive():
                        dead.append((handle, "crashed"))
                    elif (
                        handle.state == RUNNING
                        and now - self._heartbeat[handle.index]
                        > self.hang_timeout_s
                    ):
                        dead.append((handle, "hung"))
                    elif (
                        handle.state == STARTING
                        and now - handle.started_at
                        > self.start_timeout_s
                    ):
                        dead.append((handle, "start-timeout"))
                elif (
                    handle.state == BACKOFF
                    and handle.restart_at <= now
                    and handle.restart_at > 0
                ):
                    to_start.append(handle.index)
        expired: List[_Pending] = []
        with self._lock:
            # Parked requests (worker=None, waiting out an outage)
            # are the supervisor's to expire; dispatched ones get
            # their "deadline" answer from the worker that holds them.
            for pending in list(self._pending.values()):
                if pending.worker is None and now > pending.deadline:
                    self._pending.pop(pending.rid, None)
                    expired.append(pending)
        for pending in expired:
            if pending.future.done():  # pragma: no cover - resolved late
                continue
            pending.future.set_exception(
                DeadlineExceeded(
                    f"request {pending.rid} expired while parked "
                    f"(no worker available)"
                )
            )
            self.metrics.record_error()
            self.metrics.record_problem(
                "deadline-expired", f"request {pending.rid} (parked)"
            )
        for handle, reason in dead:
            self._handle_worker_death(handle, reason)
        for index in to_start:
            self._start_worker(index)

    def _handle_worker_death(
        self, handle: _WorkerHandle, reason: str
    ) -> None:
        process = handle.process
        exitcode: Optional[int] = None
        if process is not None:
            if process.is_alive():
                # Hung (or start-timeout) worker: SIGKILL so restart is
                # the single recovery path and SIGKILL-survivability is
                # exercised by construction.
                process.kill()
                process.join(timeout=2.0)
            exitcode = process.exitcode
        corrupt = exitcode == EXIT_CORRUPT
        with self._lock:
            if handle.state not in (STARTING, RUNNING):
                return
            victims = [
                p for p in self._pending.values() if p.worker is handle
            ]
            handle.assigned = 0
            handle.last_exitcode = exitcode
            handle.ready_at = None
            old_queue = handle.queue
            old_conn = handle.conn
            handle.queue = None
            handle.conn = None
            handle.process = None
            now = time.time()
            handle.restart_log = [
                t for t in handle.restart_log
                if now - t < self.restart_window_s
            ]
            handle.restart_log.append(now)
            strikes = len(handle.restart_log)
            if strikes >= self.max_restarts:
                handle.state = BROKEN
            else:
                handle.state = BACKOFF
                backoff = min(
                    self.restart_backoff_s * (2 ** (strikes - 1)),
                    self.restart_backoff_max_s,
                )
                handle.restart_at = now + backoff
            new_state = handle.state
            self._state_cond.notify_all()
        self.metrics.record_problem(
            f"worker-{reason}",
            f"worker {handle.index} gen {handle.generation} "
            f"exitcode={exitcode}",
        )
        if self.obs is not None:
            self.obs.dump_flight(f"worker-{reason}")
        if corrupt:
            # The corrupt report may have died with the worker; repair
            # from the exit code alone (idempotent if already repaired).
            with self._lock:
                artifact = self._artifact
            artifact.restore_pristine()
            self.metrics.record_problem(
                "artifact-repaired",
                f"segment restored after worker {handle.index} exit",
            )
        if new_state == BROKEN:
            self.metrics.record_problem(
                "circuit-open",
                f"worker {handle.index}: {strikes} deaths within "
                f"{self.restart_window_s}s; no further restarts",
            )
            if self.obs is not None:
                self.obs.dump_flight("breaker-trip")
        if old_conn is not None:
            try:
                old_conn.close()
            except OSError:  # pragma: no cover
                pass
        if old_queue is not None:
            old_queue.cancel_join_thread()
            old_queue.close()
        self._retry_or_fail(victims)

    def _retry_or_fail(self, victims: List[_Pending]) -> None:
        """Re-dispatch a dead worker's in-flight requests on survivors.

        Only ``predict`` requests are retried (idempotent by contract);
        anything unretryable — wrong kind, deadline too close, retry
        budget spent — fails with :class:`WorkerCrashed`.  A retryable
        request with no survivor able to take it right now (a multi-worker
        outage, e.g. fleet-wide corruption exits) is *parked* instead of
        failed: it stays pending with no worker, the next worker to come
        back picks it up, and the watchdog expires it at its deadline.
        """
        for pending in victims:
            outcome = "fail"
            retryable = (
                self.retry_on_worker_loss
                and pending.kind == "predict"
                and pending.attempts < self.max_retries
                and time.time() < pending.deadline
            )
            if retryable:
                with self._lock:
                    if pending.rid not in self._pending:
                        # The collector raced us: the worker answered
                        # before dying and the future is already
                        # resolved.  Nothing to retry or fail.
                        outcome = "resolved"
                    else:
                        self._end_dispatch_span(pending, "worker-lost")
                        pending.worker = None
                        candidates = [
                            h for h in self._workers if h.state == RUNNING
                        ]
                        if self._dispatch_to(pending, candidates):
                            pending.attempts += 1
                            outcome = "retried"
                        else:
                            outcome = "parked"
            else:
                with self._lock:
                    if self._pending.pop(pending.rid, None) is None:
                        outcome = "resolved"
                    else:
                        self._end_dispatch_span(pending, "worker-lost")
            if outcome == "retried":
                self.metrics.record_retry()
                self._record_retry_span(pending)
                continue
            if outcome in ("parked", "resolved"):
                continue
            if pending.future.done():  # pragma: no cover - resolved late
                continue
            pending.future.set_exception(
                WorkerCrashed(
                    f"request {pending.rid} lost with its worker "
                    f"(attempts={pending.attempts})"
                )
            )
            self.metrics.record_error()
            self.metrics.record_problem(
                "request-lost", f"request {pending.rid}"
            )

    # --------------------------------------------------------------- hot-swap

    def deploy(
        self, model: Any, *, timeout_s: float = 30.0
    ) -> Dict[str, object]:
        """Fleet-wide all-or-nothing hot-swap to a new artifact epoch.

        Publishes the artifact as epoch N+1, asks every running worker to
        reload, and flips the fleet's active epoch only when **all** of
        them ack (workers that die mid-swap restart onto whichever epoch
        is active and don't block the flip).  On partial failure the
        acked workers are reloaded back to the last-good epoch, the new
        segment is unlinked, and the returned record says why — the fleet
        keeps serving the last-good model throughout.
        """
        artifact = as_quantized_artifact(model)
        if int(artifact.n_features_) != self._n_features:
            raise ValueError(
                f"cannot hot-swap: fleet serves {self._n_features} "
                f"features, incoming artifact has {artifact.n_features_}"
            )
        with self._lock:
            if self._closed:
                raise FleetClosed("FleetServer is closed")
            if self._swap_state is not None:
                raise RuntimeError("another fleet hot-swap is in progress")
            new_epoch = self._epoch + 1
            self._swap_state = {
                "epoch": new_epoch, "waiting": set(), "failed": [],
            }
        new_artifact: Optional[SharedArtifact] = None
        try:
            new_artifact = SharedArtifact.publish(artifact, epoch=new_epoch)
            with self._lock:
                targets = [
                    h for h in self._workers if h.state == RUNNING
                ]
                state = self._swap_state
                assert state is not None
                state["waiting"] = {
                    (h.index, h.generation) for h in targets
                }
            send_failures: List[Tuple[int, str]] = []
            for handle in targets:
                try:
                    assert handle.queue is not None
                    handle.queue.put(
                        ("reload", new_epoch, new_artifact.name),
                        timeout=2.0,
                    )
                except (queue_mod.Full, ValueError, OSError, AssertionError):
                    send_failures.append(
                        (handle.index, "reload message not deliverable")
                    )
            with self._lock:
                state = self._swap_state
                assert state is not None
                state["failed"].extend(send_failures)

                def settled() -> bool:
                    # Stragglers that died/restarted mid-swap drop out of
                    # the waiting set: their replacement maps the active
                    # epoch at spawn.
                    live = {
                        (i, g)
                        for (i, g) in state["waiting"]
                        if self._workers[i].generation == g
                        and self._workers[i].state == RUNNING
                    }
                    state["waiting"] = live
                    return not live or bool(state["failed"])

                self._state_cond.wait_for(settled, timeout=timeout_s)
                failed = list(state["failed"])
                remaining = set(state["waiting"])
            success = not failed and not remaining
            if success:
                with self._lock:
                    old_artifact = self._artifact
                    self._artifact = new_artifact
                    self._epoch = new_epoch
                self.metrics.record_swap()
                old_artifact.unlink()
                old_artifact.close()
                return {
                    "ok": True,
                    "epoch": new_epoch,
                    "workers": len(targets),
                }
            # ---- rollback: last-good epoch stays authoritative --------
            with self._lock:
                last_good = self._artifact.name
                last_epoch = self._epoch
                acked = [
                    h for h in self._workers
                    if h.state == RUNNING and h.epoch == new_epoch
                ]
            for handle in acked:
                try:
                    assert handle.queue is not None
                    handle.queue.put(
                        ("reload", last_epoch, last_good), timeout=2.0
                    )
                except (queue_mod.Full, ValueError, OSError, AssertionError):
                    pass  # the worker will be restarted by the watchdog
            new_artifact.unlink()
            new_artifact.close()
            self.metrics.record_problem(
                "swap-rollback",
                f"epoch {new_epoch}: failed={failed} "
                f"unacked={sorted(i for i, _ in remaining)}",
            )
            return {
                "ok": False,
                "epoch": last_epoch,
                "rejected_epoch": new_epoch,
                "failed": failed,
                "unacked": sorted(i for i, _ in remaining),
            }
        finally:
            with self._lock:
                self._swap_state = None
                self._state_cond.notify_all()

    # ------------------------------------------------------------ observation

    @property
    def active_epoch(self) -> int:
        return self._epoch

    @property
    def shared_artifact(self) -> SharedArtifact:
        """The supervisor-side handle of the active segment (chaos/test
        surface: ``array_view`` to corrupt, ``restore_pristine`` to
        repair)."""
        return self._artifact

    def worker_states(self) -> List[str]:
        with self._lock:
            return [h.state for h in self._workers]

    def worker_pids(self) -> List[Optional[int]]:
        with self._lock:
            return [
                h.process.pid if h.process is not None else None
                for h in self._workers
            ]

    def running_indices(self) -> List[int]:
        with self._lock:
            return [h.index for h in self._workers if h.state == RUNNING]

    def wait_all_running(self, timeout: Optional[float] = None) -> bool:
        """Block until every non-broken worker slot is RUNNING."""
        with self._state_cond:
            return self._state_cond.wait_for(
                lambda: all(
                    h.state in (RUNNING, BROKEN) for h in self._workers
                )
                and any(h.state == RUNNING for h in self._workers),
                timeout=timeout,
            )

    def inject_chaos(self, index: int, directive: Dict[str, Any]) -> bool:
        """Deliver a chaos directive to worker ``index`` (test harness)."""
        with self._lock:
            handle = self._workers[index]
            target_queue = handle.queue if handle.state == RUNNING else None
        if target_queue is None:
            return False
        try:
            target_queue.put(("chaos", dict(directive)), timeout=2.0)
            return True
        except (queue_mod.Full, ValueError, OSError):
            return False

    def kill_worker(self, index: int) -> Optional[int]:
        """SIGKILL worker ``index`` (chaos surface); returns the pid."""
        with self._lock:
            handle = self._workers[index]
            process = handle.process
            pid = process.pid if process is not None else None
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - already gone
                return None
        return pid

    def stats(self) -> Dict[str, object]:
        """Metrics snapshot + fleet topology (the operator surface)."""
        snapshot = self.metrics.snapshot()
        with self._lock:
            workers = [h.as_record() for h in self._workers]
            epoch = self._epoch
            n_pending = len(self._pending)
        running = sum(1 for w in workers if w["state"] == RUNNING)
        snapshot["fleet"] = {
            "n_workers": self.n_workers,
            "n_running": running,
            "epoch": epoch,
            "pending": n_pending,
            "queue_depth": self.queue_depth,
            "service_floor_s": self.service_floor_s,
            "breaker_open": [
                int(w["index"]) for w in workers if w["breaker_open"]
            ],
            "workers": workers,
        }
        return snapshot

    # ------------------------------------------------------------- lifecycle

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop intake, fail pending requests, stop and reap the workers,
        release the shared segment.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            workers = list(self._workers)
            for handle in workers:
                handle.state = STOPPED
        self._closed_event.set()
        for item in pending:
            span = item.span
            item.span = None
            if span is not None:
                span.end("closed")
            if not item.future.done():
                item.future.set_exception(
                    FleetClosed("FleetServer closed with request in flight")
                )
        for handle in workers:
            if handle.queue is not None:
                try:
                    handle.queue.put_nowait(("stop",))
                except (queue_mod.Full, ValueError, OSError):
                    pass
        for thread in (self._collector, self._watchdog):
            if thread.is_alive():
                thread.join(timeout=timeout_s)
        deadline = time.time() + timeout_s
        for handle in workers:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(deadline - time.time(), 0.1))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        for handle in workers:
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
                handle.conn = None
            if handle.queue is not None:
                handle.queue.cancel_join_thread()
                handle.queue.close()
                handle.queue = None
            handle.process = None
        try:
            self._artifact.unlink()
            self._artifact.close()
        except BufferError:  # pragma: no cover - a live chaos view
            self._artifact.unlink()
        from repro.serve import shutdown as shutdown_registry

        shutdown_registry.unregister(self)
        if self.obs is not None:
            self.obs.dump_flight("shutdown")

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetServer(n_workers={self.n_workers}, "
            f"epoch={self._epoch})"
        )
