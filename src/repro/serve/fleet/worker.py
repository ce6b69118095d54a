"""Fleet worker process: map the shared artifact, serve batches, heartbeat.

One worker is one OS process running :func:`fleet_worker_main`.  It pins
BLAS to one thread (the fleet scales by processes, see
:func:`~repro.engine.executor.pin_blas_threads`), maps the published
:class:`~repro.serve.fleet.shm.SharedArtifact` zero-copy, rebuilds the
deploy model over views into the segment, and then loops: stamp a
heartbeat, wait for the next inbound item, act.

A request starts a **micro-batch**: the worker takes every request
already published behind it and hands them all to the serving core
(:func:`repro.serve.core.score_requests`, the one
:class:`~repro.serve.server.ModelServer` uses too).  The core runs one
encode→score pass of the artifact's
:class:`~repro.deploy.staged.StagedModel` pipeline over their rows,
timing the two stages, and splits the results back by each request's row
count; the worker answers the whole batch with one reply (paced replies
under a delay, below).  When the batch pass raises, each request is
scored alone through the same core, so an error stays with the request
that caused it.  A batch is whatever was published and unanswered, so
the fleet's admission bound (``queue_depth`` unanswered requests per
worker) bounds it.  A control message ends the batch in front of it and
runs after that batch, so requests sent before a ``reload`` are scored by
the old epoch.

The protocol (see :mod:`repro.serve.fleet.ring`).  Each worker
generation gets one :class:`~repro.serve.fleet.ring.Ring` -- a shared
block of ``queue_depth`` request slots and as many reply slots, plus a
doorbell semaphore -- and one duplex pipe.  A SIGKILLed worker can only
corrupt *its own* ring and pipe, which the supervisor discards wholesale
on restart.  Every inbound item carries one sequence number, and the
worker acts on the items in that order, whichever way they travel:

- ``("req", rid, kind, rows, deadline, enqueued, trace, slot)`` -- score
  ``rows`` (``kind`` is :data:`~repro.serve.core.PREDICT` or
  :data:`~repro.serve.core.SCORES`) unless ``deadline`` (unix seconds)
  has passed by the time it is answered.  ``trace`` is an optional
  :class:`~repro.obs.trace.TraceContext`.  A request of at most
  :data:`~repro.serve.fleet.ring.SLOT_ROWS` rows arrives in request slot
  ``slot``, header and rows read in place; a larger one (or one whose
  slot was still held) arrives pickled on the pipe with ``slot`` ``-1``;
- ``("reload", epoch, shm_name)`` -- fleet hot-swap: attach the new
  segment, rebuild, ack ``("reloaded", ...)`` or
  ``("reload-failed", ...)``.  After a successful reload the worker
  closes the mappings it no longer serves; one still pinned by a live
  array view (``BufferError``) is closed at a later reload;
- ``("chaos", directive)`` -- fault injection (see
  :mod:`repro.serve.chaos`): hang without heartbeats, exit with a given
  code, or add per-request latency;
- ``("stop",)`` -- clean exit.

Control messages always take the pipe, so they never wait for a slot.
Outbound, on the pipe:

- ``("res", replies, meta)`` -- a reply: one per batch, or one per
  request of a delayed batch.  ``replies`` holds one
  ``(rid, status, payload)`` per request answered: ``"ok"`` with the
  request's result rows, ``"deadline"`` with ``None`` for a request
  whose deadline passed before it was answered, or ``"error"`` with the
  exception's repr.  A numeric result that fits is written into the
  request's reply slot before the message is sent, and its payload is
  that slot's number; any other result rides in the message.  ``meta``
  rides the first reply of a scored batch and is ``None`` otherwise; it
  is a dict: ``n_rows`` (rows scored), the ``encode_s`` / ``score_s``
  stage split the core timed (absent when the batch pass raised), and,
  for sampled traces, the worker's finished span dicts under
  ``"spans"`` for the supervisor's tracer to ingest;
- ``("ready", ...)``, ``("reloaded", ...)``, ``("reload-failed", ...)``
  and ``("corrupt", ...)`` -- lifecycle reports.

The service floor and the chaos ``slow`` delay stay per request: a batch
of ``k`` live requests sleeps ``k`` times the delay.  The batch is scored
once its first request's delay has passed, right after its deadlines are
checked again, and each request's reply is released as its own share of
the sleep elapses; a request whose deadline passes before its release is
answered ``"deadline"``.  Every sampled request gets its own ``worker``
span under its own ``dispatch`` span.  That span covers the whole
batch, has ``encode`` / ``score`` children and carries the batch size,
so the spans of one batch overlap.

Every ``crc_check_every`` loop ticks the worker re-verifies the segment
CRC; on mismatch it reports ``("corrupt", ...)`` and exits with
:data:`~repro.serve.fleet.shm.EXIT_CORRUPT` so the supervisor repairs the
segment from its pristine copy before restarting the worker.  When the
supervisor passes a ``flight_dir`` in the worker config, the worker
keeps its own :class:`~repro.obs.recorder.FlightRecorder` and dumps it
(reason ``"corrupt"``) before a CRC-corruption exit — the one death the
supervisor cannot reconstruct from its own side.
"""

from __future__ import annotations

import os
import time
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.executor import pin_blas_threads, resolve_n_jobs
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import TraceContext, span_record
from repro.serve.core import score_requests
from repro.serve.fleet.ring import Ring
from repro.serve.fleet.shm import EXIT_CORRUPT, SharedArtifact

#: Largest single sleep slice while idling/delaying — heartbeats must keep
#: flowing through any legitimate wait so the watchdog only fires on real
#: hangs.
_SLICE_S = 0.02

#: One inbound item, as :meth:`Ring.take` returns it.
Message = Tuple[Any, ...]


def _beat(heartbeat: Any, index: int) -> None:
    heartbeat[index] = time.time()


def _sleep_until(until: float, heartbeat: Any, index: int) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``until``, beating."""
    while True:
        _beat(heartbeat, index)
        remaining = until - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(remaining, _SLICE_S))


def _drain(
    ring: Ring, conn: Connection, batch: List[Message]
) -> Optional[Message]:
    """Append every request already published to ``batch``.  Returns the
    control message that ended the drain, or ``None`` when nothing more
    has arrived."""
    while True:
        message = ring.take(conn, 0)
        if message is None or message[0] != "req":
            return message
        batch.append(message)


def _expire(
    batch: List[Message], replies: List[Tuple[int, str, Any]]
) -> List[Message]:
    """Answer the requests of ``batch`` whose deadline has passed with
    ``"deadline"``; return the others."""
    now = time.time()
    live = []
    for message in batch:
        deadline = message[4]
        if deadline is not None and now > deadline:
            replies.append((message[1], "deadline", None))
        else:
            live.append(message)
    return live


def _score_each(model: Any, live: List[Message]) -> List[Tuple[str, Any]]:
    """Score each request alone, after a batch pass raised, so an error
    stays with the request that caused it."""
    outcomes: List[Tuple[str, Any]] = []
    for message in live:
        try:
            (result,), _, _ = score_requests(model, [(message[2], message[3])])
        except Exception as exc:  # noqa: BLE001 - reported per request
            outcomes.append(("error", repr(exc)))
        else:
            outcomes.append(("ok", result))
    return outcomes


def _request_spans(
    ctx: TraceContext,
    status: str,
    attrs: Dict[str, object],
    start_unix: float,
    total_s: float,
    encode_s: Optional[float],
    score_s: Optional[float],
) -> List[Dict[str, object]]:
    """One request's ``worker`` span over its batch, with the batch's
    ``encode`` / ``score`` stages (one opaque ``score`` without a
    split) as children."""
    worker_span = span_record(
        "worker", "worker", ctx, start_unix, total_s, status=status,
        attrs=attrs,
    )
    child = TraceContext(ctx.trace_id, str(worker_span["span_id"]), True)
    if encode_s is None or score_s is None:
        return [
            worker_span,
            span_record("score", "worker", child, start_unix, total_s),
        ]
    return [
        worker_span,
        span_record("encode", "worker", child, start_unix, encode_s),
        span_record("score", "worker", child, start_unix + encode_s, score_s),
    ]


def _serve_batch(
    model: Any,
    ring: Ring,
    batch: List[Message],
    delay_s: float,
    heartbeat: Any,
    index: int,
    recorder: Optional[FlightRecorder],
    send: Any,
) -> None:
    """Serve one drained batch, sending its ``("res", ...)`` replies.

    Without a delay the batch is answered by one reply.  With one, its
    ``k`` live requests are paced ``delay_s`` apart from the batch's
    start: the batch is scored once the first request's delay has
    passed, and each later request's reply is released as its own share
    of the ``k × delay_s`` sleep elapses.  Clients then refill the ring
    while the worker still sleeps on the rest of the batch, so a worker
    under a delay never runs dry between batches.  The first reply
    carries the batch's ``meta``.  Numeric results go into the requests'
    reply slots before any reply is sent.
    """
    replies: List[Tuple[int, str, Any]] = []
    live = _expire(batch, replies)
    start = time.perf_counter()
    if live and delay_s > 0:
        _sleep_until(start + delay_s, heartbeat, index)
        live = _expire(live, replies)
    if not live:
        send(("res", replies, None))
        return
    start_unix = time.time()
    start_perf = time.perf_counter()
    encode_s: Optional[float] = None
    score_s: Optional[float] = None
    outcomes: List[Tuple[str, Any]]
    try:
        results, encode_s, score_s = score_requests(
            model, [(message[2], message[3]) for message in live]
        )
        outcomes = [("ok", result) for result in results]
    except Exception:  # noqa: BLE001 - isolated per request below
        outcomes = _score_each(model, live)
        encode_s = score_s = None
    total_s = time.perf_counter() - start_perf
    n_rows = sum(int(message[3].shape[0]) for message in live)
    meta: Dict[str, Any] = {"n_rows": n_rows}
    if encode_s is not None:
        meta["encode_s"] = float(encode_s)
        meta["score_s"] = float(score_s or 0.0)
    spans: List[Dict[str, object]] = []
    for message, (status, _) in zip(live, outcomes):
        trace = message[6]
        if trace is not None and trace[2]:
            spans.extend(_request_spans(
                TraceContext(*trace), status,
                {"index": index, "kind": message[2],
                 "batch_requests": len(live), "batch_rows": n_rows},
                start_unix, total_s, encode_s, score_s,
            ))
    if spans:
        meta["spans"] = spans
        if recorder is not None:
            for span in spans:
                recorder.record_span(span)
    answers = []
    for message, (status, payload) in zip(live, outcomes):
        slot = message[7]
        if status == "ok" and ring.write_reply(slot, payload):
            payload = slot
        answers.append((message[1], status, payload))
    if delay_s <= 0:
        send(("res", replies + answers, meta))
        return
    send(("res", replies + answers[:1], meta))
    for share in range(2, len(live) + 1):
        _sleep_until(start + share * delay_s, heartbeat, index)
        rid, status, payload = answers[share - 1]
        deadline = live[share - 1][4]
        if deadline is not None and time.time() > deadline:
            status, payload = "deadline", None
        send(("res", [(rid, status, payload)], None))


def fleet_worker_main(
    index: int,
    generation: int,
    shm_name: str,
    ring: Ring,
    conn: Connection,
    heartbeat: Any,
    config: Dict[str, Any],
) -> None:
    """Entry point of one fleet worker process (runs until stopped)."""
    pin_blas_threads()
    heartbeat_interval_s = float(config.get("heartbeat_interval_s", 0.05))
    crc_check_every = int(config.get("crc_check_every", 64))
    service_floor_s = float(config.get("service_floor_s", 0.0))
    flight_dir = config.get("flight_dir")
    recorder: Optional[FlightRecorder] = (
        FlightRecorder(f"worker-{index}") if flight_dir else None
    )
    chaos_delay_s = 0.0
    # Superseded mappings a live view kept open at their reload.
    retired: List[SharedArtifact] = []

    def _dump_corrupt(epoch: int) -> None:
        if recorder is None:
            return
        recorder.record_event("crc-corrupt", f"epoch {epoch}")
        try:
            recorder.dump(flight_dir, "corrupt")
        except OSError:
            pass  # crash path: the exit code still tells the supervisor

    artifact = SharedArtifact.attach(shm_name)
    if not artifact.verify():
        conn.send(("corrupt", index, generation, artifact.epoch))
        _dump_corrupt(artifact.epoch)
        os._exit(EXIT_CORRUPT)
    model = artifact.rebuild_model()
    _beat(heartbeat, index)
    conn.send(("ready", index, generation, artifact.epoch))

    ticks = 0
    # A control message that ended the last drain; it runs next.
    held: Optional[Message] = None
    while True:
        _beat(heartbeat, index)
        ticks += 1
        if crc_check_every and ticks % crc_check_every == 0:
            if not artifact.verify():
                conn.send(("corrupt", index, generation, artifact.epoch))
                _dump_corrupt(artifact.epoch)
                os._exit(EXIT_CORRUPT)
        if held is not None:
            message, held = held, None
        else:
            message = ring.take(conn, heartbeat_interval_s)
            if message is None:
                continue
        tag = message[0]

        if tag == "req":
            batch = [message]
            held = _drain(ring, conn, batch)
            _serve_batch(
                model, ring, batch, service_floor_s + chaos_delay_s,
                heartbeat, index, recorder, conn.send,
            )

        elif tag == "reload":
            _, epoch, new_name = message
            incoming: Optional[SharedArtifact] = None
            try:
                incoming = SharedArtifact.attach(new_name)
                if not incoming.verify():
                    raise RuntimeError(
                        f"epoch {epoch} segment failed CRC verification"
                    )
                model = incoming.rebuild_model()
            except Exception as exc:  # noqa: BLE001 - supervisor decides
                if incoming is not None and not incoming.close():
                    retired.append(incoming)
                conn.send(
                    ("reload-failed", index, generation, int(epoch),
                     repr(exc))
                )
            else:
                # The old model went with the rebind above, so its views
                # no longer pin the old mapping.
                retired.append(artifact)
                artifact = incoming
                retired = [old for old in retired if not old.close()]
                conn.send(("reloaded", index, generation, int(epoch)))

        elif tag == "chaos":
            directive = message[1]
            chaos_kind = directive.get("kind")
            if chaos_kind == "hang":
                # Simulate a wedged worker: stop heartbeating entirely so
                # the watchdog's hang detection (not process liveness) has
                # to catch it.
                while True:
                    time.sleep(3600.0)
            elif chaos_kind == "crash":
                os._exit(int(directive.get("code", 1)))
            elif chaos_kind == "slow":
                chaos_delay_s = float(directive.get("delay_s", 0.0))
            elif chaos_kind == "clear":
                chaos_delay_s = 0.0

        elif tag == "stop":
            break

    conn.close()


def resolve_worker_count(n_workers: Optional[int]) -> int:
    """Fleet sizing through the engine's core-resolution idiom.

    ``None``/``-1`` sizes the fleet like
    :func:`repro.engine.executor.resolve_n_jobs` sizes a process pool —
    every visible core — so ``FleetServer(artifact, n_workers=-1)``
    matches ``ProcessExecutor`` semantics; explicit counts pass through
    (validated positive).
    """
    if n_workers is None:
        n_workers = -1
    return int(resolve_n_jobs(n_workers))
