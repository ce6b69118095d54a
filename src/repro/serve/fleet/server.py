"""The fault-tolerant serving fleet: supervisor + dispatcher + watchdog.

:class:`FleetServer` runs N worker *processes* (one OS process each, the
engine's :class:`~repro.engine.executor.ProcessExecutor` idiom applied to
the request path) against one
:class:`~repro.serve.fleet.shm.SharedArtifact` — the deploy model
published once into shared memory and mapped zero-copy by every worker.
The front end is a dispatcher with **admission control**: a request is
placed on the least-loaded running worker, whose unanswered requests
are bounded by ``queue_depth``, and when every worker is at that bound
it is *shed* with an explicit
:class:`~repro.serve.fleet.errors.Overloaded` instead of queueing
unboundedly.  Requests and replies travel through each worker's
shared-memory :class:`~repro.serve.fleet.ring.Ring`; the worker's pipe
carries control messages, oversized requests and one small message per
answered batch.  Requests are validated once, at admission, by the
serving core's :func:`~repro.serve.core.admit` (the check
:class:`~repro.serve.server.ModelServer` runs too), so a malformed or
non-finite row is rejected with ``ValueError`` before it can share a
worker batch.  Each request carries a **deadline**; a worker
answers an expired request without touching the model.  Workers take
every published request into one micro-batch and reply once per batch
(see :mod:`repro.serve.fleet.worker`); the collector settles a whole
reply under one lock acquisition.

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
sampled requests carry their :class:`~repro.obs.trace.TraceContext` in
their request slot headers, the dispatcher wraps each attempt in a ``dispatch``
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
import pickle
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
from repro.serve.core import PREDICT, SCORES, admit
from repro.serve.fleet.errors import (
    DeadlineExceeded,
    FleetClosed,
    Overloaded,
    RequestFailed,
    WorkerCrashed,
)
from repro.serve.fleet.ring import Ring
from repro.serve.fleet.shm import EXIT_CORRUPT, SharedArtifact
from repro.serve.fleet.worker import fleet_worker_main, resolve_worker_count
from repro.serve.metrics import ServerMetrics
from repro.utils.validation import (
    check_non_negative_float,
    check_positive_float,
    check_positive_int,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs import Observability

#: Worker lifecycle states (``stats()["fleet"]["workers"][i]["state"]``).
STARTING = "starting"
RUNNING = "running"
BACKOFF = "backoff"
BROKEN = "broken"
STOPPED = "stopped"

#: Request deadline, in seconds, when the caller passes no ``timeout``.
DEFAULT_TIMEOUT_S = 5.0
#: Seconds between worker heartbeats, and between watchdog ticks.
HEARTBEAT_INTERVAL_S = 0.05
#: Seconds a spawned worker has to report ready before it counts as dead
#: (and the constructor's wait for the whole fleet to come up).
START_TIMEOUT_S = 30.0
#: Cap, in seconds, on the exponential restart backoff.
RESTART_BACKOFF_MAX_S = 2.0
#: Dispatch attempts a ``predict`` request gets across worker losses.
MAX_RETRIES = 2

#: A numbered pipe item and where it goes: ``(conn, send_lock, item)``.
_Send = Tuple[Optional[Connection], Any, Tuple[Any, ...]]


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
        "ring", "slot", "attempts", "ctx", "span",
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
        # The ring (worker generation) it was sent to, and its request
        # slot there (-1: sent over the pipe).
        self.ring: Optional[Ring] = None
        self.slot = -1
        self.attempts = 0
        self.ctx = ctx
        self.span: Optional[Any] = None  # live "dispatch" span, if sampled


class _WorkerHandle:
    """Supervisor-side record of one worker slot (mutated under the fleet
    lock).  The slot outlives individual processes: a restart bumps
    ``generation`` and replaces the process/ring/pipe wholesale, so a
    SIGKILL-corrupted channel can never be reused.  ``send_lock``
    serializes pipe writes, which happen outside the fleet lock."""

    __slots__ = (
        "index", "generation", "process", "ring", "conn", "send_lock",
        "state", "epoch", "assigned", "restart_log", "restart_at",
        "started_at", "n_restarts", "last_exitcode", "ready_at",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.generation = 0
        self.process: Optional[Any] = None
        self.ring: Optional[Ring] = None
        self.conn: Optional[Connection] = None
        self.send_lock = threading.Lock()
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
        Unanswered requests each worker may hold — the admission-control
        knob, and the slot count of each worker's rings.  Total fleet
        capacity is ``n_workers * queue_depth`` queued + in-flight
        requests; beyond it submits shed with :class:`Overloaded`.
    hang_timeout_s:
        The heartbeat age past which a live process counts as hung (and
        is SIGKILLed + restarted).  Workers beat every
        :data:`HEARTBEAT_INTERVAL_S`.
    restart_backoff_s:
        Exponential restart backoff: death *k* within the window waits
        ``restart_backoff_s * 2**(k-1)`` seconds, capped at
        :data:`RESTART_BACKOFF_MAX_S`.
    max_restarts / restart_window_s:
        Crash-loop circuit breaker: ``max_restarts`` deaths inside
        ``restart_window_s`` mark the slot broken (no further restarts).
        A dead worker's in-flight ``predict`` requests are retried on a
        survivor, up to :data:`MAX_RETRIES` attempts (idempotent;
        ``scores`` requests fail with :class:`WorkerCrashed` — callers
        own non-idempotent semantics).
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
        propagation to the workers (``ctx=`` on the submit
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
        hang_timeout_s: float = 2.0,
        restart_backoff_s: float = 0.1,
        max_restarts: int = 3,
        restart_window_s: float = 5.0,
        service_floor_s: float = 0.0,
        crc_check_every: int = 64,
        start_method: Optional[str] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        artifact = as_quantized_artifact(model)
        self.n_workers = resolve_worker_count(
            n_workers if n_workers is not None else 1
        )
        self.queue_depth = check_positive_int(queue_depth, "queue_depth")
        self.hang_timeout_s = check_positive_float(
            hang_timeout_s, "hang_timeout_s"
        )
        self.restart_backoff_s = check_non_negative_float(
            restart_backoff_s, "restart_backoff_s"
        )
        self.max_restarts = check_positive_int(max_restarts, "max_restarts")
        self.restart_window_s = check_positive_float(
            restart_window_s, "restart_window_s"
        )
        self.service_floor_s = check_non_negative_float(
            service_floor_s, "service_floor_s"
        )
        self.crc_check_every = int(crc_check_every)
        self.obs = obs
        self.metrics = ServerMetrics(obs=obs)

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
        self._n_classes = len(artifact.classes_)
        self._epoch = 1
        self._artifact = SharedArtifact.publish(artifact, epoch=self._epoch)
        self._worker_config: Dict[str, Any] = {
            "heartbeat_interval_s": HEARTBEAT_INTERVAL_S,
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
            if not self.wait_all_running(timeout=START_TIMEOUT_S):
                raise RuntimeError(
                    f"fleet failed to start: "
                    f"{self.worker_states()} after {START_TIMEOUT_S}s"
                )
            from repro.serve import shutdown as shutdown_registry

            shutdown_registry.register(self)
        except BaseException:
            self.close()
            raise

    def _register_fleet_gauges(self, obs: "Observability") -> None:
        """Pull-style fleet gauges: refreshed by a registry collector at
        scrape time, so per-worker load and topology are always
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
            handle.ring = None
            handle.conn = None
            generation = handle.generation
            shm_name = self._artifact.name
        ring = Ring(
            self.queue_depth, self._n_features, self._n_classes,
            ctx=self._ctx,
        )
        parent_conn, child_conn = self._ctx.Pipe()
        self._heartbeat[index] = time.time()
        process = self._ctx.Process(
            target=fleet_worker_main,
            args=(
                index, generation, shm_name, ring, child_conn,
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
                handle.ring = ring
                handle.conn = parent_conn
        if stale:  # pragma: no cover - raced a restart or close()
            process.kill()
            process.join(timeout=2.0)
            try:
                parent_conn.close()
            except OSError:
                pass

    # -------------------------------------------------------------- admission

    def _validate(self, X: Any) -> np.ndarray:
        """The one validation a request gets, at admission (see
        :func:`repro.serve.core.admit`)."""
        return admit(X, self._n_features)

    def _dispatch_to(
        self,
        pending: _Pending,
        candidates: Sequence[_WorkerHandle],
        sends: List[_Send],
    ) -> bool:
        """Send ``pending`` to the least-loaded candidate (caller holds
        the fleet lock).  Returns False when every candidate already
        holds ``queue_depth`` unanswered requests.

        The request is published in the worker's ring; when it cannot be
        (see :meth:`Ring.push`) its pipe item is appended to ``sends``,
        which the caller delivers with :meth:`_send` after releasing the
        lock."""
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
        handle = min(candidates, key=lambda h: h.assigned, default=None)
        if handle is None or handle.assigned >= self.queue_depth:
            if pending.span is not None:
                pending.span.end("no-worker")
                pending.span = None
            return False
        ring = handle.ring
        assert ring is not None  # every RUNNING worker has its ring
        slot = ring.push(
            pending.rid, pending.kind, pending.rows, pending.deadline,
            pending.enqueued, trace,
        )
        if slot < 0:
            sends.append(self._pipe_send(handle, (
                "req", pending.rid, pending.kind, pending.rows,
                pending.deadline, pending.enqueued, trace, -1,
            )))
        pending.worker = handle
        pending.ring = ring
        pending.slot = slot
        handle.assigned += 1
        return True

    @staticmethod
    def _pipe_send(
        handle: _WorkerHandle, message: Tuple[Any, ...]
    ) -> _Send:
        """Number ``message`` in ``handle``'s inbound order (caller holds
        the fleet lock); deliver the result with :meth:`_send`."""
        assert handle.ring is not None
        return handle.conn, handle.send_lock, handle.ring.pipe_item(message)

    @staticmethod
    def _send(sends: Sequence[_Send]) -> List[bool]:
        """Write numbered pipe items, outside the fleet lock.  An item
        whose worker is gone is dropped: that worker's death handling
        owns whatever it held."""
        delivered = []
        for conn, send_lock, item in sends:
            try:
                with send_lock:
                    if conn is None:
                        raise OSError("worker pipe closed")
                    conn.send(item)
            except OSError:
                delivered.append(False)
            else:
                delivered.append(True)
        return delivered

    def _submit(
        self,
        kind: str,
        X: Any,
        timeout: Optional[float],
        ctx: Optional[TraceContext] = None,
    ) -> Future:
        rows = self._validate(X)
        timeout_s = DEFAULT_TIMEOUT_S if timeout is None else float(timeout)
        pending = _Pending(kind, rows, time.time() + timeout_s, ctx)
        sends: List[_Send] = []
        with self._lock:
            if self._closed:
                raise FleetClosed("FleetServer is closed")
            pending.rid = self._next_rid
            self._next_rid += 1
            candidates = [h for h in self._workers if h.state == RUNNING]
            dispatched = self._dispatch_to(pending, candidates, sends)
            if dispatched:
                self._pending[pending.rid] = pending
            n_candidates = len(candidates)
        if not dispatched:
            self.metrics.record_shed()
            raise Overloaded(
                f"admission control: {n_candidates} running worker(s), "
                f"each holding {self.queue_depth} unanswered requests"
            )
        self._send(sends)
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
        return self._submit(PREDICT, X, timeout, ctx)

    def submit_decision_scores(
        self,
        X: Any,
        timeout: Optional[float] = None,
        ctx: Optional[TraceContext] = None,
    ) -> Future:
        """Dispatch a ``scores`` request; resolves to (n, k) scores."""
        return self._submit(SCORES, X, timeout, ctx)

    def predict(self, X: Any, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous fleet prediction (submit + wait)."""
        wait_s = DEFAULT_TIMEOUT_S if timeout is None else float(timeout)
        result = self.submit_predict(X, timeout).result(timeout=wait_s + 2.0)
        return np.asarray(result)

    def decision_scores(
        self, X: Any, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Synchronous fleet scores (submit + wait)."""
        wait_s = DEFAULT_TIMEOUT_S if timeout is None else float(timeout)
        result = self.submit_decision_scores(X, timeout).result(
            timeout=wait_s + 2.0
        )
        return np.asarray(result)

    # -------------------------------------------------------------- collector

    def _collect_loop(self) -> None:
        while not self._closed_event.is_set():
            with self._lock:
                conns: Dict[Connection, Tuple[_WorkerHandle, Ring]] = {
                    h.conn: (h, h.ring)
                    for h in self._workers
                    if h.conn is not None
                    and h.ring is not None
                    and h.state in (STARTING, RUNNING)
                }
            if not conns:
                self._closed_event.wait(0.02)
                continue
            try:
                ready = connection_wait(list(conns), timeout=0.1)
            except OSError:  # pragma: no cover - conn torn down mid-wait
                continue
            for conn in ready:
                handle, ring = conns[conn]
                try:
                    message = conn.recv()
                except Exception:  # noqa: BLE001 - EOF/garbage from a kill
                    with self._lock:
                        if handle.conn is conn:
                            handle.conn = None
                    self._close_conn(handle, conn)
                    continue
                self._on_message(handle, ring, message)

    def _on_message(
        self, handle: _WorkerHandle, ring: Ring, message: Tuple[Any, ...]
    ) -> None:
        tag = message[0]
        if tag == "res":
            self._on_response(ring, message)
        elif tag == "ready":
            _, index, generation, epoch = message
            redispatched: List[_Pending] = []
            sends: List[_Send] = []
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
                        if self._dispatch_to(pending, (handle,), sends):
                            pending.attempts += 1
                            redispatched.append(pending)
                self._state_cond.notify_all()
            self._send(sends)
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

    def _on_response(self, ring: Ring, message: Tuple[Any, ...]) -> None:
        """Settle one worker batch reply that came with ``ring``'s
        worker generation: results left in reply slots are copied out,
        its requests leave the pending table and free their slots under
        one lock acquisition, and its latencies, stage split and batch
        size are recorded once."""
        _, replies, meta = message
        # A reply slot stays this thread's until it releases the slot
        # below, so results are copied out before taking the lock.
        replies = [
            (rid, status, ring.read_reply(payload))
            if status == "ok" and isinstance(payload, int)
            else (rid, status, payload)
            for rid, status, payload in replies
        ]
        settled: List[Tuple[_Pending, str, Any]] = []
        spans: List[Tuple[Any, str]] = []
        with self._lock:
            for rid, status, payload in replies:
                pending = self._pending.get(rid)
                if pending is None or pending.ring is not ring:
                    # Late/duplicate answer from a worker generation we
                    # already failed, or for a request re-dispatched
                    # elsewhere.  Leave a re-dispatched pending in place:
                    # the generation it now belongs to owns the answer
                    # (accepting the stale one here would leak the new
                    # owner's ``assigned`` slot, and its payload may sit
                    # in the old generation's reply slot).
                    continue
                del self._pending[rid]
                handle = pending.worker
                assert handle is not None
                handle.assigned = max(handle.assigned - 1, 0)
                if pending.slot >= 0:
                    ring.release(pending.slot)
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
            self._closed_event.wait(HEARTBEAT_INTERVAL_S)

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
                        and now - handle.started_at > START_TIMEOUT_S
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
            old_conn = handle.conn
            # The ring goes with the generation: its pending requests are
            # retried below, and a stale reply can no longer be settled.
            handle.ring = None
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
                    RESTART_BACKOFF_MAX_S,
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
            self._close_conn(handle, old_conn)
        self._retry_or_fail(victims)

    @staticmethod
    def _close_conn(handle: _WorkerHandle, conn: Connection) -> None:
        """Close a worker pipe once no pipe write to it is in progress."""
        with handle.send_lock:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

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
            sends: List[_Send] = []
            retryable = (
                pending.kind == PREDICT
                and pending.attempts < MAX_RETRIES
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
                        pending.ring = None
                        pending.slot = -1
                        candidates = [
                            h for h in self._workers if h.state == RUNNING
                        ]
                        if self._dispatch_to(pending, candidates, sends):
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
                self._send(sends)
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
            reload = ("reload", new_epoch, new_artifact.name)
            with self._lock:
                targets = [
                    h for h in self._workers if h.state == RUNNING
                ]
                state = self._swap_state
                assert state is not None
                state["waiting"] = {
                    (h.index, h.generation) for h in targets
                }
                sends = [self._pipe_send(h, reload) for h in targets]
            send_failures = [
                (handle.index, "reload message not deliverable")
                for handle, delivered in zip(targets, self._send(sends))
                if not delivered
            ]
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
                rollback = ("reload", last_epoch, last_good)
                sends = [
                    self._pipe_send(h, rollback)
                    for h in self._workers
                    if h.state == RUNNING and h.epoch == new_epoch
                ]
            # A worker whose rollback is not delivered is gone; the
            # watchdog restarts it onto the last-good epoch.
            self._send(sends)
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
        message = ("chaos", dict(directive))
        # A numbered item that never arrives would stall the worker, so
        # an unpicklable directive fails here, before it is numbered.
        pickle.dumps(message)
        with self._lock:
            handle = self._workers[index]
            if handle.state != RUNNING:
                return False
            send = self._pipe_send(handle, message)
        return self._send([send])[0]

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
            stops = [
                self._pipe_send(h, ("stop",))
                for h in workers if h.ring is not None
            ]
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
        # ``stop`` takes the pipe, so it reaches a worker whose ring is
        # full; the worker exits once it has answered what it holds.  It
        # is written on its own thread: a worker that stopped reading with
        # its pipe full blocks the write until it is killed below.
        stopper = threading.Thread(
            target=self._send, args=(stops,), name="repro-fleet-stop",
            daemon=True,
        )
        stopper.start()
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
        stopper.join(timeout=1.0)
        for handle in workers:
            if handle.conn is not None:
                self._close_conn(handle, handle.conn)
                handle.conn = None
            handle.ring = None
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
