"""One fleet worker's inbound order and shared-memory request/reply slots.

A :class:`Ring` is the transport between the supervisor and one worker
*generation*.  It owns one anonymous shared block (allocated from the
``multiprocessing`` heap, so no named ``/dev/shm`` segment exists) that
holds ``depth`` request slots and ``depth`` reply slots, and a counting
semaphore, the **doorbell**.

Every item the worker receives carries one sequence number, and the
worker acts on the items strictly in that order, wherever they travel:

- a request of at most :data:`SLOT_ROWS` rows goes **inline**
  (:meth:`Ring.push`): its header (rid, kind, row count, deadline,
  enqueue time, trace context) and rows are copied into the next request
  slot, the slot's sequence number is stored last, and the doorbell is
  posted;
- anything else -- a control message (``reload``, ``chaos``, ``stop``), a
  request with more rows than a slot holds, or a request whose slot is
  still held -- travels pickled on the worker's pipe
  (:meth:`Ring.pipe_item`): the supervisor numbers it and posts the
  doorbell under its lock, then sends ``(seq, message)`` outside it.  A
  pipe item never needs a free slot, so ``stop`` reaches a full ring.

The supervisor numbers and posts items in sequence order under one lock,
so the worker's *k*-th doorbell permit stands for item *k*: by the time
:meth:`Ring.take` holds it, that item is either in the request slot at
the worker's ring position (its stored sequence number says so) or on
the pipe, possibly a few microseconds behind the permit.  Pipe items that
overtake each other between concurrent senders are held back until
their turn.  A semaphore post with no waiter makes no system call, and
post/wait order the slot stores before the worker's loads.

Replies use the slot of their request: the worker writes a numeric
result into the request's reply slot (:meth:`Ring.write_reply`) before it
sends the batch's one pickled message, and the supervisor copies it out
(:meth:`Ring.read_reply`) when it settles that message, then frees the
slot (:meth:`Ring.release`).  A request slot is written only when free,
so no slot is overwritten before its reader is done; the fleet's
admission bound (fewer than ``depth`` unanswered requests per worker)
keeps the next slot free except after out-of-order replies, where the
request takes the pipe instead.

Each method belongs to one side: :meth:`push`, :meth:`pipe_item`,
:meth:`read_reply` and :meth:`release` to the supervisor (under its
lock), :meth:`take` and :meth:`write_reply` to the worker.
"""

from __future__ import annotations

import struct
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.obs.trace import TraceContext
from repro.serve.core import PREDICT, SCORES

__all__ = ["SLOT_ROWS", "Ring"]

#: Rows one request slot holds.  Requests with more rows take the pipe.
#: Copying rows into a slot costs the same at 1 and at 8 rows, while the
#: block grows with the slot size (``depth * SLOT_ROWS * n_features``
#: float64 values); see docs/performance.md for the measurement.
SLOT_ROWS = 8

_KINDS = (PREDICT, SCORES)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}

#: Request slot header: rid, rows, deadline, enqueued, kind, trace flags,
#: trace id (two 64-bit halves), parent span id.  64 bytes.
_REQUEST = struct.Struct("<qqddBB6xQQQ")
#: Reply slot header: dtype character code, rows, columns (-1 for a 1-D
#: result).
_REPLY = struct.Struct("<qqq")
_REPLY_HEAD = 32

_HAS_TRACE, _SAMPLED, _HAS_PARENT = 1, 2, 4
_MASK64 = (1 << 64) - 1


def _encode_trace(
    trace: Optional[TraceContext],
) -> Optional[Tuple[int, ...]]:
    """``(flags, trace_hi, trace_lo, parent)`` for a slot header, or
    ``None`` when the ids are not the 32/16-hex-digit form
    :mod:`repro.obs.ids` issues (such a request takes the pipe)."""
    if trace is None:
        return 0, 0, 0, 0
    trace_id, parent, sampled = trace
    try:
        value = int(trace_id, 16)
        parent_value = 0 if parent is None else int(parent, 16)
    except (TypeError, ValueError):
        return None
    if "%032x" % value != trace_id or (
        parent is not None and "%016x" % parent_value != parent
    ):
        return None
    flags = _HAS_TRACE | (_SAMPLED if sampled else 0)
    if parent is not None:
        flags |= _HAS_PARENT
    return flags, value >> 64, value & _MASK64, parent_value


def _decode_trace(
    flags: int, hi: int, lo: int, parent: int
) -> Optional[TraceContext]:
    if not flags & _HAS_TRACE:
        return None
    return TraceContext(
        "%032x" % ((hi << 64) | lo),
        "%016x" % parent if flags & _HAS_PARENT else None,
        bool(flags & _SAMPLED),
    )


class Ring:
    """Request and reply slots plus the doorbell of one worker generation.

    ``ctx`` is the ``multiprocessing`` context whose heap holds the block
    and whose semaphore is the doorbell; without one the ring lives in
    this process (a ``bytearray`` and a thread semaphore), which is how
    the tests drive it as a state machine.
    """

    def __init__(
        self,
        depth: int,
        n_features: int,
        reply_cols: int,
        ctx: Any = None,
    ) -> None:
        self.depth = int(depth)
        self.n_features = int(n_features)
        self.reply_bytes = SLOT_ROWS * max(int(reply_cols), 1) * 8
        size = self._layout()
        if ctx is None:
            self._block: Any = bytearray(size)
            self._doorbell: Any = threading.Semaphore(0)
        else:
            self._block = ctx.RawArray("b", size)
            self._doorbell = ctx.Semaphore(0)
        self._map()
        self._seqs[:] = -1
        self._reset()

    def _reset(self) -> None:
        # Supervisor side: next sequence number, next ring position, and
        # the slots whose replies are not yet read.
        self._seq = 0
        self._head = 0
        self._held = [False] * self.depth
        # Worker side: next sequence number and ring position to take,
        # whether a permit is held, and pipe items that came early.
        self._expect = 0
        self._tail = 0
        self._armed = False
        self._early: Dict[int, Tuple[Any, ...]] = {}

    def _layout(self) -> int:
        depth = self.depth
        self._req_off = 8 * depth
        self._rows_off = self._req_off + _REQUEST.size * depth
        rows_bytes = 8 * SLOT_ROWS * self.n_features * depth
        self._rep_off = self._rows_off + rows_bytes
        self._data_off = self._rep_off + _REPLY_HEAD * depth
        return self._data_off + self.reply_bytes * depth

    def _map(self) -> None:
        data = np.frombuffer(self._block, dtype=np.uint8)
        self._buf = memoryview(data)
        depth = self.depth
        self._seqs = data[:self._req_off].view(np.int64)
        self._rows = data[self._rows_off:self._rep_off].view(
            np.float64
        ).reshape(depth, SLOT_ROWS, self.n_features)
        self._reply_data = data[self._data_off:].reshape(
            depth, self.reply_bytes
        )

    def __getstate__(self) -> Dict[str, Any]:
        # Pickled only to start a worker under ``spawn``: the heap block
        # and the semaphore travel, the views are rebuilt, and the
        # worker's read state starts fresh.
        return {
            "depth": self.depth, "n_features": self.n_features,
            "reply_bytes": self.reply_bytes, "block": self._block,
            "doorbell": self._doorbell,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.depth = state["depth"]
        self.n_features = state["n_features"]
        self.reply_bytes = state["reply_bytes"]
        self._block = state["block"]
        self._doorbell = state["doorbell"]
        self._layout()
        self._map()
        self._reset()

    # ------------------------------------------------------ supervisor side

    def push(
        self,
        rid: int,
        kind: str,
        rows: np.ndarray,
        deadline: float,
        enqueued: float,
        trace: Optional[TraceContext] = None,
    ) -> int:
        """Publish one request inline; return its slot, or ``-1`` when it
        must take the pipe (too many rows, the next slot still held, or a
        trace context a header cannot carry)."""
        n_rows = rows.shape[0]
        slot = self._head % self.depth
        if n_rows > SLOT_ROWS or self._held[slot]:
            return -1
        encoded = _encode_trace(trace)
        if encoded is None:
            return -1
        _REQUEST.pack_into(
            self._buf, self._req_off + _REQUEST.size * slot,
            rid, n_rows, deadline, enqueued, _KIND_CODE[kind], *encoded,
        )
        self._rows[slot, :n_rows] = rows
        self._seqs[slot] = self._seq
        self._held[slot] = True
        self._head += 1
        self._seq += 1
        self._doorbell.release()
        return slot

    def pipe_item(
        self, message: Tuple[Any, ...]
    ) -> Tuple[int, Tuple[Any, ...]]:
        """Number ``message`` for the pipe and post the doorbell; the
        caller sends the returned ``(seq, message)`` outside its lock."""
        seq = self._seq
        self._seq += 1
        self._doorbell.release()
        return seq, message

    def read_reply(self, slot: int) -> np.ndarray:
        """A copy of the result the worker wrote into ``slot``."""
        code, n_rows, n_cols = _REPLY.unpack_from(
            self._buf, self._rep_off + _REPLY_HEAD * slot
        )
        dtype = np.dtype(chr(code))
        shape = (n_rows,) if n_cols < 0 else (n_rows, n_cols)
        nbytes = dtype.itemsize * n_rows * max(n_cols, 1)
        return (
            self._reply_data[slot, :nbytes].view(dtype).reshape(shape).copy()
        )

    def release(self, slot: int) -> None:
        """Free ``slot`` once its reply has been read (or not needed)."""
        self._held[slot] = False

    # ---------------------------------------------------------- worker side

    def take(
        self, conn: Any, timeout: Optional[float]
    ) -> Optional[Tuple[Any, ...]]:
        """The next item in sequence order, or ``None`` if none arrived
        within ``timeout`` seconds (``0`` polls, ``None`` blocks).

        A request comes back as ``("req", rid, kind, rows, deadline,
        enqueued, trace, slot)``; an inline request's ``rows`` is a view
        of its slot, valid until its reply is sent.  A permit whose item
        is still on its way over the pipe is kept for the next call.
        """
        if not self._armed:
            if timeout == 0:
                acquired = self._doorbell.acquire(False)
            else:
                acquired = self._doorbell.acquire(True, timeout)
            if not acquired:
                return None
            self._armed = True
        expect = self._expect
        slot = self._tail % self.depth
        if self._seqs[slot] == expect:
            message = self._request(slot)
            self._tail += 1
        else:
            message = self._early.pop(expect, None)
            while message is None:
                if not conn.poll(timeout):
                    return None
                seq, item = conn.recv()
                if seq == expect:
                    message = item
                else:
                    self._early[seq] = item
        self._armed = False
        self._expect = expect + 1
        return message

    def _request(self, slot: int) -> Tuple[Any, ...]:
        rid, n_rows, deadline, enqueued, kind, flags, hi, lo, parent = (
            _REQUEST.unpack_from(
                self._buf, self._req_off + _REQUEST.size * slot
            )
        )
        return (
            "req", rid, _KINDS[kind], self._rows[slot, :n_rows], deadline,
            enqueued, _decode_trace(flags, hi, lo, parent), slot,
        )

    def write_reply(self, slot: int, result: Any) -> bool:
        """Write a numeric ``result`` into reply slot ``slot``; False when
        it has to ride in the reply message instead (a pipe request, a
        non-numeric dtype, or too many bytes)."""
        if slot < 0:
            return False
        result = np.ascontiguousarray(result)
        dtype = result.dtype
        if (
            dtype.kind not in "biuf"
            or not dtype.isnative
            or result.ndim not in (1, 2)
            or result.nbytes > self.reply_bytes
        ):
            return False
        n_cols = result.shape[1] if result.ndim == 2 else -1
        _REPLY.pack_into(
            self._buf, self._rep_off + _REPLY_HEAD * slot,
            ord(dtype.char), result.shape[0], n_cols,
        )
        self._reply_data[slot, :result.nbytes] = result.reshape(-1).view(
            np.uint8
        )
        return True
